//! The timed window, cut into quarter-second intervals and kept only where
//! the host let the guest run.
//!
//! On a shared virtual machine the hypervisor sometimes runs other guests
//! on our cores for seconds at a time ("steal" time in `/proc/stat`).
//! While it does, every latency percentile and every throughput figure
//! moves by tens of percent with nothing in the program changed. So the
//! window is cut into quarter-second intervals, each stamped with the
//! steal ticks it and the interval before it saw (a request delayed by
//! steal may complete one interval later, and each outcome is counted in
//! the interval it completed in). A steal tick is 10 ms, and a single one
//! already lifts a quarter-second's p99 latency several times. So the run
//! keeps measuring until it has the intervals it needs with no such tick,
//! or until it has spent four times the asked-for time. The metrics come
//! from the asked-for number of intervals with the fewest.

use std::thread;
use std::time::{Duration, Instant};

use crate::workload::{Control, STOP, TRACED, WINDOW};

/// Length of one measurement interval.
const INTERVAL: Duration = Duration::from_millis(250);
/// A window phase measures for at most this many times its length.
const CAP_FACTOR: usize = 4;
/// End-to-end figures are medians over this many stretches of the kept
/// intervals: 2 s each in an 8 s window (4000 decisions on `remote-open`,
/// 40 of them beyond p99).
const STRETCHES: usize = 4;

/// Intervals a phase of `len` needs (at least one).
fn intervals_in(len: Duration) -> usize {
    ((len.as_secs_f64() / INTERVAL.as_secs_f64()).round() as usize).max(1)
}

/// The (phase, intervals needed) list of a run of `seconds`: the traced
/// run spends the first half untraced and the second half traced.
pub fn plan(seconds: Duration, trace: bool) -> Vec<(u8, usize)> {
    let need = intervals_in(seconds);
    if trace {
        let untraced = (need / 2).max(1);
        vec![
            (WINDOW, untraced),
            (TRACED, need.saturating_sub(untraced).max(1)),
        ]
    } else {
        vec![(WINDOW, need)]
    }
}

/// The median, over [`STRETCHES`] runs of consecutive `intervals`, of
/// `f(stretch)`: one disturbed stretch cannot move an end-to-end figure.
pub fn median_of_stretches(intervals: &[usize], f: impl Fn(&[usize]) -> f64) -> f64 {
    let size = intervals.len().div_ceil(STRETCHES).max(1);
    let per_stretch: Vec<f64> = intervals.chunks(size).map(f).collect();
    crate::report::median(&per_stretch)
}

/// Interval slots a client must hold for `plan` (slot 0 is "outside").
pub fn slots(plan: &[(u8, usize)]) -> usize {
    1 + plan.iter().map(|&(_, n)| CAP_FACTOR * n).sum::<usize>()
}

/// Cumulative steal ticks of all CPUs (`/proc/stat`, first line). 0 where
/// the kernel reports none.
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// A boundary between intervals.
pub struct Mark<S> {
    /// When it was taken, ns since the run's base instant.
    pub t_ns: u64,
    /// Cumulative steal ticks.
    pub steal: u64,
    /// What the workload sampled (process counters, service metrics…).
    pub snap: S,
}

/// Every interval of a run's window. Interval `i` (from 1) runs from
/// `marks[i - 1]` to `marks[i]`.
pub struct Timeline<S> {
    /// Boundaries; `marks[0]` opens the window.
    pub marks: Vec<Mark<S>>,
    /// Phase of interval `i` at index `i` (index 0 unused).
    pub phase: Vec<u8>,
    plan: Vec<(u8, usize)>,
}

/// Run the window: step through the intervals of `plan`, sampling `snap`
/// at every boundary and calling `tick` about every 10 ms. `on_traced`
/// runs just before the traced phase opens. Leaves the phase at STOP.
pub fn run<S>(
    control: &Control,
    plan: Vec<(u8, usize)>,
    mut snap: impl FnMut() -> S,
    mut on_traced: impl FnMut(),
    mut tick: impl FnMut(usize),
) -> Timeline<S> {
    let mark = |snap: S| Mark {
        t_ns: control.now_ns(),
        steal: steal_ticks(),
        snap,
    };
    let mut tl = Timeline {
        marks: vec![mark(snap())],
        phase: vec![0],
        plan: plan.clone(),
    };
    let mut boundary = Instant::now();
    for (phase, need) in plan {
        if phase == TRACED {
            on_traced();
        }
        control.set_phase(phase);
        let (mut quiet, mut taken) = (0, 0);
        while quiet < need && taken < CAP_FACTOR * need {
            tl.phase.push(phase);
            let i = tl.phase.len() - 1;
            control.set_interval(i);
            boundary += INTERVAL;
            loop {
                let left = boundary.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    break;
                }
                thread::sleep(left.min(Duration::from_millis(10)));
                tick(i);
            }
            tl.marks.push(mark(snap()));
            if tl.disturbance(i) == 0 {
                quiet += 1;
            }
            taken += 1;
        }
    }
    control.set_interval(0);
    control.set_phase(STOP);
    tl
}

impl<S> Timeline<S> {
    /// Steal ticks interval `i` saw.
    pub fn steal(&self, i: usize) -> u64 {
        self.marks[i].steal - self.marks[i - 1].steal
    }

    /// Steal ticks interval `i` and the one before it saw.
    pub fn disturbance(&self, i: usize) -> u64 {
        self.marks[i].steal - self.marks[i.saturating_sub(2)].steal
    }

    /// The intervals a phase's metrics come from: as many as the phase
    /// needs, those with the least disturbance (earliest first on ties).
    pub fn selected(&self, phase: u8) -> Vec<usize> {
        let need = self
            .plan
            .iter()
            .find(|&&(p, _)| p == phase)
            .map_or(0, |&(_, n)| n);
        let mut picked: Vec<usize> = (1..self.phase.len())
            .filter(|&i| self.phase[i] == phase)
            .collect();
        picked.sort_by_key(|&i| (self.disturbance(i), i));
        picked.truncate(need);
        picked.sort_unstable();
        picked
    }

    /// Intervals measured in `phase`, kept or not.
    pub fn measured(&self, phase: u8) -> usize {
        self.phase.iter().filter(|&&p| p == phase).count()
    }

    /// (start, end) of interval `i`, ns since the base instant.
    fn range_ns(&self, i: usize) -> (u64, u64) {
        (self.marks[i - 1].t_ns, self.marks[i].t_ns)
    }

    /// Whether `t_ns` falls inside one of `intervals`.
    pub fn contains(&self, intervals: &[usize], t_ns: u64) -> bool {
        intervals.iter().any(|&i| {
            let (a, b) = self.range_ns(i);
            a <= t_ns && t_ns < b
        })
    }

    /// Total length of `intervals`, seconds.
    pub fn seconds(&self, intervals: &[usize]) -> f64 {
        intervals
            .iter()
            .map(|&i| {
                let (a, b) = self.range_ns(i);
                (b - a) as f64 / 1e9
            })
            .sum()
    }

    /// Sum of `f(start, end)` over `intervals`.
    pub fn sum(&self, intervals: &[usize], f: impl Fn(&S, &S) -> f64) -> f64 {
        intervals
            .iter()
            .map(|&i| f(&self.marks[i - 1].snap, &self.marks[i].snap))
            .sum()
    }

    /// Fold `f(start, end)` over `intervals` into one value.
    pub fn fold<T>(&self, intervals: &[usize], init: T, f: impl Fn(T, &S, &S) -> T) -> T {
        intervals.iter().fold(init, |acc, &i| {
            f(acc, &self.marks[i - 1].snap, &self.marks[i].snap)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timeline(steals: &[u64], phases: &[u8], plan: Vec<(u8, usize)>) -> Timeline<()> {
        let mut marks = vec![Mark {
            t_ns: 0,
            steal: 0,
            snap: (),
        }];
        let mut total = 0;
        for (k, s) in steals.iter().enumerate() {
            total += s;
            marks.push(Mark {
                t_ns: (k as u64 + 1) * 250_000_000,
                steal: total,
                snap: (),
            });
        }
        let mut phase = vec![0];
        phase.extend_from_slice(phases);
        Timeline { marks, phase, plan }
    }

    #[test]
    fn keeps_the_quietest_intervals_of_each_phase() {
        let tl = timeline(
            &[9, 0, 0, 1, 7, 0, 3, 0, 0],
            &[
                WINDOW, WINDOW, WINDOW, WINDOW, TRACED, TRACED, TRACED, TRACED, TRACED,
            ],
            vec![(WINDOW, 2), (TRACED, 2)],
        );
        // interval 2 had no steal but follows a stolen one
        assert_eq!(tl.disturbance(2), 9);
        assert_eq!(tl.selected(WINDOW), vec![3, 4]);
        assert_eq!(tl.selected(TRACED), vec![7, 9]);
        assert_eq!(tl.seconds(&[2, 3]), 0.5);
        assert!(tl.contains(&[2], 300_000_000));
        assert!(!tl.contains(&[2], 500_000_000));
    }

    #[test]
    fn plans_split_the_traced_run() {
        assert_eq!(plan(Duration::from_secs(10), false), vec![(WINDOW, 40)]);
        assert_eq!(
            plan(Duration::from_secs(10), true),
            vec![(WINDOW, 20), (TRACED, 20)]
        );
        assert_eq!(slots(&plan(Duration::from_secs(10), false)), 161);
        let halves = median_of_stretches(&[1, 2, 3, 4, 5, 6, 7, 8], |g| g[0] as f64);
        assert_eq!(halves, 4.0); // stretches start at 1, 3, 5, 7
    }
}
