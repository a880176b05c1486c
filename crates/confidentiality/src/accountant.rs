//! The strict privacy budget (paper §2: "techniques that work under a strict
//! privacy budget").
//!
//! [`PrivacyAccountant`] is a ledger: analyses *must* ask it for budget
//! before releasing anything, and once the ε (or δ) budget is exhausted,
//! further queries fail with [`fact_data::FactError::BudgetExhausted`]. Basic
//! (sequential) composition is enforced; [`advanced_composition_epsilon`]
//! computes the tighter bound of Dwork–Rothblum–Vadhan for k-fold
//! composition, which experiment E5 compares against the basic bound.

use fact_data::{FactError, Result};

/// One ledger entry: `count` consecutive spends of the same
/// `(label, epsilon, delta)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Expenditure {
    /// Human-readable purpose of the query.
    pub label: String,
    /// Epsilon spent by each query.
    pub epsilon: f64,
    /// Delta spent by each query.
    pub delta: f64,
    /// How many consecutive queries this entry records (at least 1).
    pub count: u64,
}

/// A sequential-composition ε/δ budget ledger.
///
/// A spend costs O(1): the accountant keeps running ε and δ totals, and a
/// spend that repeats the previous entry's `(label, ε, δ)` bumps that
/// entry's `count` instead of growing the ledger. A long-lived stream of
/// identical releases therefore holds one entry, not one per release.
///
/// ```
/// use fact_confidentiality::PrivacyAccountant;
/// let mut acc = PrivacyAccountant::pure(1.0).unwrap();
/// acc.spend(0.6, 0.0, "mean salary").unwrap();
/// assert_eq!(acc.queries_remaining(0.2), 2);
/// assert!(acc.spend(0.6, 0.0, "one too many").is_err());
/// ```
#[derive(Debug, Clone)]
pub struct PrivacyAccountant {
    budget_epsilon: f64,
    budget_delta: f64,
    ledger: Vec<Expenditure>,
    /// Running totals, accumulated by `+=` in spend order so they equal
    /// the sequential sum over every recorded query, bit for bit.
    spent_epsilon: f64,
    spent_delta: f64,
}

impl PrivacyAccountant {
    /// A fresh accountant with total budget `(epsilon, delta)`.
    pub fn new(budget_epsilon: f64, budget_delta: f64) -> Result<Self> {
        if budget_epsilon <= 0.0 || !budget_epsilon.is_finite() {
            return Err(FactError::InvalidArgument(format!(
                "epsilon budget must be positive and finite, got {budget_epsilon}"
            )));
        }
        if !(0.0..1.0).contains(&budget_delta) {
            return Err(FactError::InvalidArgument(format!(
                "delta budget must be in [0, 1), got {budget_delta}"
            )));
        }
        Ok(PrivacyAccountant {
            budget_epsilon,
            budget_delta,
            ledger: Vec::new(),
            spent_epsilon: 0.0,
            spent_delta: 0.0,
        })
    }

    /// Pure-ε accountant (δ budget 0: Gaussian-mechanism spends will fail).
    pub fn pure(budget_epsilon: f64) -> Result<Self> {
        Self::new(budget_epsilon, 0.0)
    }

    /// Attempt to spend `(epsilon, delta)`; errors without recording if the
    /// remaining budget is insufficient.
    pub fn spend(
        &mut self,
        epsilon: f64,
        delta: f64,
        label: impl AsRef<str> + Into<String>,
    ) -> Result<()> {
        if epsilon <= 0.0 || !epsilon.is_finite() {
            return Err(FactError::InvalidArgument(format!(
                "query epsilon must be positive and finite, got {epsilon}"
            )));
        }
        if !(0.0..1.0).contains(&delta) {
            return Err(FactError::InvalidArgument(format!(
                "query delta must be in [0, 1), got {delta}"
            )));
        }
        let eps_left = self.remaining_epsilon();
        if epsilon > eps_left + 1e-12 {
            return Err(FactError::BudgetExhausted {
                requested: epsilon,
                remaining: eps_left,
            });
        }
        if delta > self.remaining_delta() + 1e-18 {
            return Err(FactError::PolicyViolation(format!(
                "delta budget exhausted: requested {delta}, remaining {}",
                self.remaining_delta()
            )));
        }
        self.spent_epsilon += epsilon;
        self.spent_delta += delta;
        match self.ledger.last_mut() {
            Some(last)
                if last.epsilon == epsilon
                    && last.delta == delta
                    && last.label == label.as_ref() =>
            {
                last.count += 1;
            }
            _ => self.ledger.push(Expenditure {
                label: label.into(),
                epsilon,
                delta,
                count: 1,
            }),
        }
        Ok(())
    }

    /// Total ε spent so far (basic composition: simple sum).
    pub fn spent_epsilon(&self) -> f64 {
        self.spent_epsilon
    }

    /// Total δ spent so far.
    pub fn spent_delta(&self) -> f64 {
        self.spent_delta
    }

    /// Remaining ε.
    pub fn remaining_epsilon(&self) -> f64 {
        (self.budget_epsilon - self.spent_epsilon()).max(0.0)
    }

    /// Remaining δ.
    pub fn remaining_delta(&self) -> f64 {
        (self.budget_delta - self.spent_delta()).max(0.0)
    }

    /// The total ε budget.
    pub fn budget_epsilon(&self) -> f64 {
        self.budget_epsilon
    }

    /// The total δ budget.
    pub fn budget_delta(&self) -> f64 {
        self.budget_delta
    }

    /// The ledger of every recorded expenditure, in order, with runs of
    /// identical spends coalesced — the audit trail the transparency
    /// pillar expects confidentiality decisions to leave.
    pub fn ledger(&self) -> &[Expenditure] {
        &self.ledger
    }

    /// How many more queries of `epsilon_each` the remaining budget allows
    /// under basic composition.
    pub fn queries_remaining(&self, epsilon_each: f64) -> usize {
        if epsilon_each <= 0.0 {
            return 0;
        }
        ((self.remaining_epsilon() + 1e-12) / epsilon_each).floor() as usize
    }
}

/// Total ε consumed by `k` queries of `eps_step` each under **advanced
/// composition** (Dwork–Rothblum–Vadhan), at slack `delta_prime`:
/// `ε_total = ε√(2k ln(1/δ′)) + k·ε·(e^ε − 1)`.
pub fn advanced_composition_epsilon(k: usize, eps_step: f64, delta_prime: f64) -> Result<f64> {
    if eps_step <= 0.0 || !eps_step.is_finite() {
        return Err(FactError::InvalidArgument(format!(
            "step epsilon must be positive, got {eps_step}"
        )));
    }
    if !(0.0 < delta_prime && delta_prime < 1.0) {
        return Err(FactError::InvalidArgument(format!(
            "delta' must be in (0, 1), got {delta_prime}"
        )));
    }
    let kf = k as f64;
    Ok(eps_step * (2.0 * kf * (1.0 / delta_prime).ln()).sqrt()
        + kf * eps_step * (eps_step.exp() - 1.0))
}

/// Maximum number of `eps_step` queries affordable within `eps_total` under
/// advanced composition at slack `delta_prime` (found by search).
pub fn queries_affordable_advanced(
    eps_total: f64,
    eps_step: f64,
    delta_prime: f64,
) -> Result<usize> {
    if eps_total <= 0.0 {
        return Err(FactError::InvalidArgument(
            "total epsilon must be positive".into(),
        ));
    }
    let mut k = 0usize;
    loop {
        let next = advanced_composition_epsilon(k + 1, eps_step, delta_prime)?;
        if next > eps_total {
            return Ok(k);
        }
        k += 1;
        if k > 100_000_000 {
            return Ok(k); // defensive cap
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spend_until_exhausted() {
        let mut acc = PrivacyAccountant::pure(1.0).unwrap();
        for i in 0..4 {
            acc.spend(0.25, 0.0, format!("q{i}")).unwrap();
        }
        assert!(acc.remaining_epsilon() < 1e-9);
        let err = acc.spend(0.25, 0.0, "q4").unwrap_err();
        assert!(matches!(err, FactError::BudgetExhausted { .. }));
        assert_eq!(acc.ledger().len(), 4, "failed spend not recorded");
    }

    #[test]
    fn delta_budget_enforced() {
        let mut acc = PrivacyAccountant::new(10.0, 1e-6).unwrap();
        acc.spend(1.0, 1e-6, "gaussian").unwrap();
        assert!(acc.spend(1.0, 1e-6, "gaussian2").is_err());
        // pure-epsilon queries still fine
        acc.spend(1.0, 0.0, "laplace").unwrap();
    }

    #[test]
    fn pure_accountant_rejects_any_delta() {
        let mut acc = PrivacyAccountant::pure(5.0).unwrap();
        assert!(acc.spend(1.0, 1e-9, "needs delta").is_err());
    }

    #[test]
    fn queries_remaining_counts() {
        let acc = PrivacyAccountant::pure(1.0).unwrap();
        assert_eq!(acc.queries_remaining(0.1), 10);
        assert_eq!(acc.queries_remaining(0.3), 3);
        assert_eq!(acc.queries_remaining(0.0), 0);
    }

    #[test]
    fn ledger_is_an_audit_trail() {
        let mut acc = PrivacyAccountant::pure(2.0).unwrap();
        acc.spend(0.5, 0.0, "mean salary").unwrap();
        acc.spend(0.5, 0.0, "count by dept").unwrap();
        let labels: Vec<&str> = acc.ledger().iter().map(|e| e.label.as_str()).collect();
        assert_eq!(labels, vec!["mean salary", "count by dept"]);
        assert_eq!(acc.spent_epsilon(), 1.0);
    }

    #[test]
    fn repeated_spends_coalesce_with_bit_identical_totals() {
        let n = 100_000;
        let mut acc = PrivacyAccountant::pure(1e9).unwrap();
        for _ in 0..n {
            acc.spend(0.01, 0.0, "stream dp count").unwrap();
        }
        assert_eq!(acc.ledger().len(), 1);
        assert_eq!(acc.ledger()[0].count, n);
        let sequential: f64 = std::iter::repeat(0.01).take(n as usize).sum();
        assert_eq!(acc.spent_epsilon().to_bits(), sequential.to_bits());

        // a different label, ε or δ starts a new entry
        acc.spend(0.02, 0.0, "stream dp count").unwrap();
        acc.spend(0.02, 0.0, "other").unwrap();
        acc.spend(0.02, 0.0, "other").unwrap();
        let counts: Vec<u64> = acc.ledger().iter().map(|e| e.count).collect();
        assert_eq!(counts, vec![n, 1, 2]);
    }

    #[test]
    fn validation() {
        assert!(PrivacyAccountant::new(0.0, 0.0).is_err());
        assert!(PrivacyAccountant::new(1.0, 1.0).is_err());
        let mut acc = PrivacyAccountant::pure(1.0).unwrap();
        assert!(acc.spend(0.0, 0.0, "zero").is_err());
        assert!(acc.spend(-1.0, 0.0, "neg").is_err());
    }

    #[test]
    fn advanced_composition_beats_basic_for_many_small_queries() {
        // 100 queries at ε=0.01: basic total = 1.0
        let adv = advanced_composition_epsilon(100, 0.01, 1e-5).unwrap();
        assert!(adv < 1.0, "advanced bound {adv} < basic 1.0");
        // and therefore more queries fit in the same budget
        let k_adv = queries_affordable_advanced(1.0, 0.01, 1e-5).unwrap();
        assert!(k_adv > 100, "advanced affords {k_adv} > 100 queries");
    }

    #[test]
    fn advanced_composition_worse_for_few_large_queries() {
        // 2 queries at ε=0.5: basic = 1.0; advanced has the sqrt overhead
        let adv = advanced_composition_epsilon(2, 0.5, 1e-5).unwrap();
        assert!(adv > 1.0);
    }

    #[test]
    fn advanced_validation() {
        assert!(advanced_composition_epsilon(10, 0.0, 1e-5).is_err());
        assert!(advanced_composition_epsilon(10, 0.1, 1.0).is_err());
        assert!(queries_affordable_advanced(0.0, 0.1, 1e-5).is_err());
    }
}
