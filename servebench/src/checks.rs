//! Output checks. Each returns `Err` with a reason when the program's
//! output is wrong; any failed check fails the whole run.

use std::path::Path;

use fact_serve::{read_segment_or_archive, verify_all_segments, AuditStorage, FileStorage};

use crate::workload::{Tally, Workload};

/// Every Ok decision's probability must equal the scorer's value for its
/// request's features exactly (same bits).
pub fn probability_matches(expected: f64, got: f64) -> bool {
    expected.to_bits() == got.to_bits()
}

/// No decision came back with another request's (or a wrong) score.
pub fn probabilities(t: &Tally) -> Result<(), String> {
    if t.wrong_probability == 0 {
        Ok(())
    } else {
        Err(format!(
            "{} of {} decisions carried a probability other than the scorer's",
            t.wrong_probability, t.ok
        ))
    }
}

/// Issued = served + typed errors + timeouts, on the client; and the
/// service served every accepted request (those the caller stopped waiting
/// for included), shed exactly what the client saw refused as busy, and
/// counted the same timeouts.
pub fn reconcile(
    client: &Tally,
    service_served: u64,
    service_shed: u64,
    service_timeouts: u64,
) -> Result<(), String> {
    if client.issued != client.ok + client.failed() {
        return Err(format!(
            "issued {} != ok {} + failed {}",
            client.issued,
            client.ok,
            client.failed()
        ));
    }
    if service_served != client.ok + client.timeout {
        return Err(format!(
            "service served {service_served} but the clients received {} (+{} timed out)",
            client.ok, client.timeout
        ));
    }
    if service_shed != client.busy {
        return Err(format!(
            "service shed {service_shed} but clients saw {} busy",
            client.busy
        ));
    }
    if service_timeouts != client.timeout {
        return Err(format!(
            "service counted {service_timeouts} timeouts, clients saw {}",
            client.timeout
        ));
    }
    Ok(())
}

/// Entries of an audit log, counted by action and alert kind.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditCounts {
    /// `flagged_decision` entries.
    pub flagged: u64,
    /// `guard_alert` entries for a fairness violation.
    pub fairness: u64,
    /// `guard_alert` entries for a DP release.
    pub dp_release: u64,
    /// `guard_alert` entries for an exhausted ε budget.
    pub budget_exhausted: u64,
    /// Other `guard_alert` entries (drift).
    pub other_alerts: u64,
    /// `sink_start` + `sink_stop` markers.
    pub lifecycle: u64,
    /// Every line.
    pub entries: u64,
    /// Bytes of every segment.
    pub bytes: u64,
}

impl AuditCounts {
    /// Every guard alert entry.
    pub fn alerts(&self) -> u64 {
        self.fairness + self.dp_release + self.budget_exhausted + self.other_alerts
    }

    fn count_line(&mut self, line: &[u8]) {
        const KEY: &[u8] = br#""action":""#;
        let has = |needle: &[u8]| line.windows(needle.len()).any(|w| w == needle);
        let action = line
            .windows(KEY.len())
            .position(|w| w == KEY)
            .map(|i| &line[i + KEY.len()..])
            .map_or(&b""[..], |rest| {
                &rest[..rest.iter().position(|&b| b == b'"').unwrap_or(rest.len())]
            });
        self.entries += 1;
        match action {
            b"flagged_decision" => self.flagged += 1,
            b"guard_alert" if has(b"FairnessViolation") => self.fairness += 1,
            b"guard_alert" if has(b"DpRelease") => self.dp_release += 1,
            b"guard_alert" if has(b"BudgetExhausted") => self.budget_exhausted += 1,
            b"guard_alert" => self.other_alerts += 1,
            b"sink_start" | b"sink_stop" => self.lifecycle += 1,
            // segment handoff records
            _ => {}
        }
    }
}

/// Verify the whole hash-chained log at `path` (every segment standalone
/// and stitched to its neighbours) and count its entries.
pub fn audit_log(path: &Path) -> Result<AuditCounts, String> {
    let mut storage = FileStorage::open(path).map_err(|e| format!("open audit log: {e}"))?;
    let audit = verify_all_segments(&mut storage).map_err(|e| format!("verify audit log: {e}"))?;
    if audit.segments.is_empty() {
        return Err("audit log has no segments".into());
    }
    if !audit.continuous {
        let bad: Vec<String> = audit
            .segments
            .iter()
            .filter_map(|(id, v)| v.as_ref().err().map(|e| format!("segment {id}: {e:?}")))
            .collect();
        return Err(format!("audit chain is not continuous {bad:?}"));
    }
    let mut counts = AuditCounts::default();
    for id in storage
        .list_segments()
        .map_err(|e| format!("list segments: {e}"))?
    {
        let bytes = read_segment_or_archive(&mut storage, id)
            .map_err(|e| format!("read segment {id}: {e}"))?;
        counts.bytes += bytes.len() as u64;
        for line in bytes.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
            counts.count_line(line);
        }
    }
    Ok(counts)
}

/// The log holds exactly what the service reported auditing: every
/// flagged decision, every forwarded alert, and a start and stop marker
/// per service lifetime.
pub fn audit_matches(
    log: &AuditCounts,
    flagged: u64,
    alerts: u64,
    lifetimes: u64,
) -> Result<(), String> {
    let want = (flagged, alerts, 2 * lifetimes);
    let got = (log.flagged, log.alerts(), log.lifecycle);
    if want == got {
        Ok(())
    } else {
        Err(format!(
            "audit log holds (flagged, alerts, markers) = {got:?}, service reported {want:?}"
        ))
    }
}

/// The sink's own count of what it wrote: `audited` = flagged + forwarded
/// alerts + the two lifecycle markers.
pub fn sink_accounting(audited: u64, flagged: u64, alerts: u64) -> Result<(), String> {
    if audited == flagged + alerts + 2 {
        Ok(())
    } else {
        Err(format!(
            "sink audited {audited} entries, expected flagged {flagged} + alerts {alerts} + 2 markers"
        ))
    }
}

/// Fields of `fact-shardd`'s final `drained;` line.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DrainLine {
    /// Decisions served over the worker's life.
    pub served: u64,
    /// Guard checkpoints written.
    pub checkpoints: u64,
    /// ε spent by the last topology.
    pub eps_spent: f64,
}

/// Parse `fact-shardd: drained; epochs=1 served=N checkpoints=C eps_spent=E ...`.
pub fn parse_drain_line(line: &str) -> Result<DrainLine, String> {
    let body = line
        .strip_prefix("fact-shardd: drained;")
        .ok_or_else(|| format!("not a drain line: {line:?}"))?;
    let field = |name: &str| {
        body.split_whitespace()
            .find_map(|kv| kv.strip_prefix(name)?.strip_prefix('='))
            .ok_or_else(|| format!("drain line lacks {name}: {line:?}"))
    };
    let num = |name: &str| -> Result<f64, String> {
        field(name)?
            .parse()
            .map_err(|_| format!("drain line {name} is not a number: {line:?}"))
    };
    Ok(DrainLine {
        served: num("served")? as u64,
        checkpoints: num("checkpoints")? as u64,
        eps_spent: num("eps_spent")?,
    })
}

/// The worker served exactly what the client received (plus requests the
/// client stopped waiting for).
pub fn drain_matches(drain: &DrainLine, client: &Tally) -> Result<(), String> {
    if drain.served == client.ok + client.timeout {
        Ok(())
    } else {
        Err(format!(
            "fact-shardd served {} but the client received {} (+{} timed out)",
            drain.served, client.ok, client.timeout
        ))
    }
}

/// Guard alerts raised over a run, by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AlertCounts {
    /// Fairness violations.
    pub fairness: u64,
    /// DP releases.
    pub dp_release: u64,
    /// ε budget exhausted.
    pub budget_exhausted: u64,
}

/// The workload stayed in its guard regime: fair workloads never trip the
/// fairness guard and flag (almost) nothing; `flagged-pipelined` flags
/// every decision after warm-up. No workload exhausts its ε budget.
pub fn regime(w: Workload, flagged_frac: f64, alerts: &AlertCounts) -> Result<(), String> {
    if alerts.budget_exhausted != 0 {
        return Err(format!(
            "{}: the ε budget ran out ({} alerts)",
            w.name(),
            alerts.budget_exhausted
        ));
    }
    if w.fair() {
        if alerts.fairness != 0 || flagged_frac >= 0.01 {
            return Err(format!(
                "{}: fair traffic tripped the guard ({} fairness alerts, flagged share {flagged_frac})",
                w.name(),
                alerts.fairness
            ));
        }
    } else if flagged_frac < 0.99 {
        return Err(format!(
            "{}: only {flagged_frac} of decisions were flagged after warm-up",
            w.name()
        ));
    }
    Ok(())
}

/// The traced stages account for at least 90% of the traced mean latency.
pub fn stage_coverage(coverage: f64) -> Result<(), String> {
    if coverage >= 0.9 {
        Ok(())
    } else {
        Err(format!(
            "stage spans cover {:.1}% of the traced mean latency (< 90%)",
            coverage * 100.0
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_line_parses() {
        let d = parse_drain_line(
            "fact-shardd: drained; epochs=1 served=1234 checkpoints=5 eps_spent=0.1200 throttled=0",
        )
        .unwrap();
        assert_eq!(d.served, 1234);
        assert_eq!(d.checkpoints, 5);
        assert!((d.eps_spent - 0.12).abs() < 1e-12);
        assert!(parse_drain_line("fact-shardd: listening on x").is_err());
    }
}
