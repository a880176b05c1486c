//! Guard-state checkpointing: periodic + on-shutdown serialization of each
//! shard's fairness window, ε ledger, and monitor counters to a sidecar
//! file, restored on restart so a respawned shard **resumes** instead of
//! silently resetting.
//!
//! The fairness window travels as a [`WindowSummary`] — per-segment paired
//! count-vectors — so what a restart loses is *provable and bounded*: at
//! most the decisions since the last checkpoint, and within the restored
//! window at most one segment's worth of event ordering. The ε ledger is
//! exact (every recorded expenditure is replayed into a fresh accountant);
//! runs of identical releases travel as one entry with a `count`, so a
//! sidecar stays small for the life of the service.
//! The drift monitor's recent-score window is deliberately *not*
//! checkpointed: its reference distribution is configuration, and its
//! sliding window refills within `window` decisions.
//!
//! Files are one JSON document per shard, `shard-N.json`, written
//! tmp + rename + fsync so a crash mid-write leaves the previous
//! checkpoint intact rather than a torn one.
//!
//! [`transform_checkpoints`] rewrites a directory of sidecars from N
//! shards to M, conserving every count; it is the state transform behind
//! a live reshard and can also run offline between process generations.

use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use fact_confidentiality::accountant::Expenditure;
use fact_confidentiality::PrivacyAccountant;
use fact_fairness::{SegmentCounts, WindowSummary};
use serde::{Deserialize, Serialize};

use crate::service::ServeError;

/// When and where guard state is checkpointed.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Directory holding one `shard-N.json` per shard.
    pub dir: PathBuf,
    /// Decisions between periodic checkpoints (a final checkpoint is
    /// always written on clean worker exit regardless).
    pub every: u64,
    /// Segment resolution for the serialized fairness window: smaller
    /// segments mean finer restored ordering at more checkpoint bytes.
    pub segment_events: usize,
}

impl CheckpointConfig {
    /// Checkpoint every `every` decisions into `dir` at the default
    /// resolution (1/16 of nothing in particular — 128-event segments).
    pub fn new(dir: impl Into<PathBuf>, every: u64) -> Self {
        CheckpointConfig {
            dir: dir.into(),
            every,
            segment_events: 128,
        }
    }
}

/// `count` consecutive ε/δ expenditures with the same label, as
/// serialized.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LedgerEntry {
    /// Purpose label from the accountant's ledger.
    pub label: String,
    /// Epsilon spent by each release.
    pub epsilon: f64,
    /// Delta spent by each release.
    pub delta: f64,
    /// Releases this entry records. Sidecars written before entries were
    /// coalesced carry no `count` (read as `None`, like the optional
    /// fields of fact-net's wire types); each of their entries is one
    /// release. See [`releases`](LedgerEntry::releases).
    pub count: Option<u64>,
}

impl LedgerEntry {
    /// Releases this entry records: `count`, or 1 when it is absent.
    pub fn releases(&self) -> u64 {
        self.count.unwrap_or(1)
    }
}

impl From<&Expenditure> for LedgerEntry {
    fn from(e: &Expenditure) -> Self {
        LedgerEntry {
            label: e.label.clone(),
            epsilon: e.epsilon,
            delta: e.delta,
            count: Some(e.count),
        }
    }
}

/// Everything a shard's guard set needs to resume after a restart.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GuardCheckpoint {
    /// Shard index this checkpoint belongs to.
    pub shard: u64,
    /// Lifetime decisions served by the shard at checkpoint time
    /// (survives restarts: a restored shard keeps counting from here).
    pub decisions: u64,
    /// The fairness monitor's sliding window, segment-summarized.
    pub window: WindowSummary,
    /// The privacy accountant's full expenditure ledger, runs of identical
    /// releases coalesced.
    pub ledger: Vec<LedgerEntry>,
    /// The accountant's ε budget (sanity-checked against config on load).
    pub budget_epsilon: f64,
    /// The accountant's δ budget.
    pub budget_delta: f64,
    /// Decisions accumulated toward the DP counter's next release.
    pub dp_pending: u64,
    /// Whether the DP counter already reported budget exhaustion.
    pub dp_exhausted: bool,
}

/// `dir/shard-N.json`.
pub fn checkpoint_path(dir: &Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}.json"))
}

/// Durably write `ck` under `dir`, creating the directory if needed.
/// Atomic against crashes: the JSON is written to a temp file, fsynced,
/// and renamed over the previous checkpoint.
pub fn write_checkpoint(dir: &Path, ck: &GuardCheckpoint) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let final_path = checkpoint_path(dir, ck.shard as usize);
    let tmp_path = dir.join(format!("shard-{}.json.tmp", ck.shard));
    let json = serde_json::to_string(ck)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    {
        let mut f = fs::File::create(&tmp_path)?;
        f.write_all(json.as_bytes())?;
        f.sync_all()?;
    }
    fs::rename(&tmp_path, &final_path)?;
    // fsync the directory so the rename itself is durable
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Load shard `shard`'s checkpoint from `dir`; `Ok(None)` when none has
/// been written yet (first boot). A present-but-unparseable checkpoint is
/// an error, not a silent reset — resuming from nothing when state was
/// expected is exactly the failure checkpointing exists to prevent.
pub fn load_checkpoint(dir: &Path, shard: usize) -> io::Result<Option<GuardCheckpoint>> {
    let path = checkpoint_path(dir, shard);
    let json = match fs::read_to_string(&path) {
        Ok(s) => s,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    serde_json::from_str(&json)
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
}

/// What [`transform_checkpoints`] conserved, for callers that run the
/// transform directly (e.g. offline, between process generations).
#[derive(Debug, Clone)]
pub struct TransformReport {
    /// Summed window counts before the merge.
    pub pre_counts: SegmentCounts,
    /// Summed window counts after the split; equals `pre_counts`.
    pub post_counts: SegmentCounts,
    /// Summed lifetime decisions before.
    pub pre_decisions: u64,
    /// Summed lifetime decisions after; equals `pre_decisions`.
    pub post_decisions: u64,
    /// ε-ledger releases redistributed (the sum of the entries' counts).
    pub ledger_entries: u64,
}

/// Rewrite the `shard-N.json` sidecars under `dir` from `from` shards to
/// `to` shards, conserving every count. This is the pure state transform
/// behind [`DecisionService::reshard`](crate::DecisionService::reshard);
/// it can also run offline between process generations (drain the old
/// fleet, transform, start the new one).
///
/// * Fairness windows are folded with [`WindowSummary::merge_all`] and
///   fanned out with [`WindowSummary::split`]; the summed segment counts
///   are bit-equal before and after (both are returned).
/// * ε-ledger releases are dealt round-robin (release *j* → successor
///   `j % to`, counting each entry's `count` releases in order), so every
///   recorded expenditure is replayed exactly once.
///   If any successor's total ε would exceed the checkpointed budget, the
///   transform fails **before writing anything** — conservation over
///   silent loss.
/// * Lifetime decision and DP-pending counts sum-then-split with the
///   remainder dealt to the first successors; `dp_exhausted` is OR-folded
///   (an exhausted budget anywhere stays exhausted everywhere).
/// * When shrinking, stale `shard-j.json` files for `j >= to` are removed
///   so a later grow cannot resurrect pre-transform state.
///
/// Sidecars may be missing (a shard that never served still drains
/// cleanly); at least one must exist or there is nothing to transform.
pub fn transform_checkpoints(
    dir: &std::path::Path,
    from: usize,
    to: usize,
) -> Result<TransformReport, ServeError> {
    if from == 0 || to == 0 {
        return Err(ServeError::BadRequest(
            "transform needs from > 0 and to > 0".into(),
        ));
    }
    let mut checkpoints: Vec<GuardCheckpoint> = Vec::new();
    for shard in 0..from {
        match load_checkpoint(dir, shard) {
            Ok(Some(ck)) => checkpoints.push(ck),
            Ok(None) => {}
            Err(e) => {
                return Err(ServeError::Internal(format!(
                    "sidecar for shard {shard} is unreadable: {e}"
                )))
            }
        }
    }
    let Some(first) = checkpoints.first() else {
        return Err(ServeError::Internal(format!(
            "no sidecars found under {} — nothing to transform",
            dir.display()
        )));
    };
    let budget_epsilon = first.budget_epsilon;
    let budget_delta = first.budget_delta;

    // Fold the windows and account for what went in.
    let mut pre_counts: SegmentCounts = [[0; 2]; 2];
    let mut pre_decisions = 0u64;
    let mut dp_pending_total = 0u64;
    let mut dp_exhausted = false;
    for ck in &checkpoints {
        let c = ck.window.counts();
        for g in 0..2 {
            for f in 0..2 {
                pre_counts[g][f] += c[g][f];
            }
        }
        pre_decisions += ck.decisions;
        dp_pending_total += ck.dp_pending;
        dp_exhausted |= ck.dp_exhausted;
    }
    let merged = WindowSummary::merge_all(checkpoints.iter().map(|ck| &ck.window))
        .map_err(|e| ServeError::Internal(format!("window merge failed: {e}")))?
        .expect("at least one checkpoint present");
    let parts = merged
        .split(to)
        .map_err(|e| ServeError::Internal(format!("window split failed: {e}")))?;

    // Deal the releases round-robin, preserving shard order, into one
    // accountant per successor. Each replays exactly what its restore
    // will, so an over-budget successor is refused here, before anything
    // is written.
    let mut accountants = (0..to)
        .map(|_| PrivacyAccountant::new(budget_epsilon, budget_delta))
        .collect::<fact_data::Result<Vec<_>>>()
        .map_err(|e| ServeError::Internal(format!("sidecar budget is invalid: {e}")))?;
    let mut ledger_entries = 0u64;
    for ck in &checkpoints {
        for entry in &ck.ledger {
            for _ in 0..entry.releases() {
                let i = (ledger_entries % to as u64) as usize;
                accountants[i]
                    .spend(entry.epsilon, entry.delta, entry.label.as_str())
                    .map_err(|e| {
                        ServeError::BadRequest(format!(
                            "reshard to {to} shards would overrun successor {i}'s budget \
                             ε={budget_epsilon:.4} ({e}); the ledger is conserved, not \
                             truncated — reshard to more shards or raise the budget"
                        ))
                    })?;
                ledger_entries += 1;
            }
        }
    }

    // Sum-then-split the scalar counters, remainder to the first parts.
    let split_scalar = |total: u64| -> Vec<u64> {
        let base = total / to as u64;
        let extra = (total % to as u64) as usize;
        (0..to).map(|i| base + u64::from(i < extra)).collect()
    };
    let decisions_parts = split_scalar(pre_decisions);
    let dp_pending_parts = split_scalar(dp_pending_total);

    let mut post_counts: SegmentCounts = [[0; 2]; 2];
    let mut post_decisions = 0u64;
    for (i, window) in parts.iter().enumerate() {
        let c = window.counts();
        for g in 0..2 {
            for f in 0..2 {
                post_counts[g][f] += c[g][f];
            }
        }
        post_decisions += decisions_parts[i];
        let ck = GuardCheckpoint {
            shard: i as u64,
            decisions: decisions_parts[i],
            window: window.clone(),
            ledger: accountants[i]
                .ledger()
                .iter()
                .map(LedgerEntry::from)
                .collect(),
            budget_epsilon,
            budget_delta,
            dp_pending: dp_pending_parts[i],
            dp_exhausted,
        };
        write_checkpoint(dir, &ck)
            .map_err(|e| ServeError::Internal(format!("writing sidecar {i}: {e}")))?;
    }
    for stale in to..from {
        let path = checkpoint_path(dir, stale);
        if path.exists() {
            std::fs::remove_file(&path).map_err(|e| {
                ServeError::Internal(format!("removing stale sidecar {stale}: {e}"))
            })?;
        }
    }
    Ok(TransformReport {
        pre_counts,
        post_counts,
        pre_decisions,
        post_decisions,
        ledger_entries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("fact-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample(shard: u64) -> GuardCheckpoint {
        let window =
            WindowSummary::from_events(100, 10, (0..37u64).map(|i| (i % 2 == 0, i % 3 == 0)))
                .unwrap();
        GuardCheckpoint {
            shard,
            decisions: 1234,
            window,
            ledger: vec![LedgerEntry {
                label: "dp-release".into(),
                epsilon: 0.01,
                delta: 0.0,
                count: Some(2),
            }],
            budget_epsilon: 1.0,
            budget_delta: 0.0,
            dp_pending: 42,
            dp_exhausted: false,
        }
    }

    #[test]
    fn roundtrips_through_disk() {
        let dir = temp_dir("roundtrip");
        let ck = sample(3);
        write_checkpoint(&dir, &ck).unwrap();
        let back = load_checkpoint(&dir, 3).unwrap().unwrap();
        assert_eq!(back, ck);
        // other shards are unaffected / absent
        assert!(load_checkpoint(&dir, 4).unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_dir_is_first_boot_not_error() {
        let dir = temp_dir("absent");
        assert!(load_checkpoint(&dir, 0).unwrap().is_none());
    }

    #[test]
    fn rewrite_replaces_atomically_and_corruption_is_loud() {
        let dir = temp_dir("rewrite");
        write_checkpoint(&dir, &sample(0)).unwrap();
        let mut newer = sample(0);
        newer.decisions = 9999;
        write_checkpoint(&dir, &newer).unwrap();
        assert_eq!(load_checkpoint(&dir, 0).unwrap().unwrap().decisions, 9999);
        // no stray tmp files left behind
        let stray: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .path()
                    .extension()
                    .is_some_and(|x| x == "tmp")
            })
            .collect();
        assert!(stray.is_empty());

        fs::write(checkpoint_path(&dir, 0), b"{ torn").unwrap();
        assert!(load_checkpoint(&dir, 0).is_err(), "corruption must be loud");
        let _ = fs::remove_dir_all(&dir);
    }
}
