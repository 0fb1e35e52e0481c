//! Cooperative run budgets: wall-clock deadlines, cancellation tokens
//! and the structured [`DegradationNote`]s a budget-constrained run
//! attaches to its partial results (see `DESIGN.md` §9).
//!
//! A [`RunBudget`] is cheap to clone and share: the deadline is a plain
//! `Option<Instant>` and cancellation is one shared atomic flag. Hot
//! loops amortize the `Instant` read with a [`BudgetTicker`] so the
//! disabled path (unlimited budget) costs a branch on a `None`.

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::json::Json;

/// A shared cancellation flag. Cloning hands out another handle to the
/// same flag; any holder can cancel, every holder observes it.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Why a budget check failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetExceeded {
    /// The wall-clock deadline passed.
    Deadline,
    /// The [`CancelToken`] was cancelled.
    Cancelled,
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetExceeded::Deadline => write!(f, "deadline exceeded"),
            BudgetExceeded::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// A wall-clock deadline plus a cooperative cancellation token, threaded
/// through every pipeline phase. The default ([`RunBudget::unlimited`])
/// never expires.
#[derive(Debug, Clone, Default)]
pub struct RunBudget {
    deadline: Option<Instant>,
    cancel: CancelToken,
}

impl RunBudget {
    /// A budget that never expires (cancellation still works via the
    /// attached token).
    #[must_use]
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// A budget expiring `limit` from now.
    #[must_use]
    pub fn with_deadline(limit: Duration) -> Self {
        RunBudget {
            deadline: Some(Instant::now() + limit),
            cancel: CancelToken::new(),
        }
    }

    /// A budget expiring at `deadline` (if any), cancelled via `token`.
    #[must_use]
    pub fn new(deadline: Option<Instant>, token: CancelToken) -> Self {
        RunBudget {
            deadline,
            cancel: token,
        }
    }

    /// A handle to this budget's cancellation token.
    #[must_use]
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// The absolute deadline, if one is set.
    #[must_use]
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Whether the deadline (if any) has passed.
    #[must_use]
    pub fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// Whether cancellation has been requested.
    #[must_use]
    pub fn cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }

    /// Returns `Err` when the budget is spent. Cancellation wins over
    /// the deadline so an explicit Ctrl-C is reported as such.
    ///
    /// # Errors
    ///
    /// [`BudgetExceeded::Cancelled`] or [`BudgetExceeded::Deadline`].
    pub fn check(&self) -> Result<(), BudgetExceeded> {
        if self.cancelled() {
            return Err(BudgetExceeded::Cancelled);
        }
        if self.expired() {
            return Err(BudgetExceeded::Deadline);
        }
        Ok(())
    }

    /// Time left until the deadline (`None` when unlimited; zero when
    /// already expired).
    #[must_use]
    pub fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// Derives a sub-budget covering `fraction` of the time remaining
    /// now, sharing this budget's cancellation token. The child's
    /// deadline never exceeds the parent's; an unlimited parent yields
    /// an unlimited child.
    #[must_use]
    pub fn sub(&self, fraction: f64) -> RunBudget {
        let deadline = self.deadline.map(|parent| {
            let now = Instant::now();
            let left = parent.saturating_duration_since(now);
            let slice = left.mul_f64(fraction.clamp(0.0, 1.0));
            (now + slice).min(parent)
        });
        RunBudget {
            deadline,
            cancel: self.cancel.clone(),
        }
    }

    /// Splits this budget across an ordered sequence of phases by
    /// weight, reclaiming time a phase leaves unused (see
    /// [`StagedBudget`]).
    #[must_use]
    pub fn staged(&self, weights: &[f64]) -> StagedBudget {
        StagedBudget {
            parent: self.clone(),
            weights: weights.to_vec(),
            next: 0,
        }
    }
}

/// Splits one [`RunBudget`] across an ordered sequence of pipeline
/// phases by weight, *reclaiming* slack as it goes: each call to
/// [`StagedBudget::next_stage`] slices `w_i / Σ_{j≥i} w_j` of the time
/// remaining **now**, so a phase that finishes early automatically
/// donates its leftover share to every later phase instead of
/// stranding it. Under full pressure (every phase consuming its whole
/// slice) the schedule matches a static pre-allocation of the same
/// weights, so tight-deadline behavior is a strict improvement, never
/// a redistribution away from a starving phase.
///
/// Calling [`StagedBudget::next_stage`] past the last weight (or with
/// a non-positive weight tail) hands out the full remainder.
#[derive(Debug)]
pub struct StagedBudget {
    parent: RunBudget,
    weights: Vec<f64>,
    next: usize,
}

impl StagedBudget {
    /// Derives the sub-budget for the next stage in the sequence: its
    /// share is `w_i / Σ_{j≥i} w_j` of the parent's time remaining at
    /// the moment of the call.
    #[must_use]
    pub fn next_stage(&mut self) -> RunBudget {
        let tail: f64 = self.weights[self.next.min(self.weights.len())..]
            .iter()
            .sum();
        let w = self.weights.get(self.next).copied().unwrap_or(0.0);
        self.next = (self.next + 1).min(self.weights.len());
        if tail <= 0.0 {
            return self.parent.sub(1.0);
        }
        self.parent.sub(w / tail)
    }

    /// The budget being split.
    #[must_use]
    pub fn parent(&self) -> &RunBudget {
        &self.parent
    }
}

/// Amortizes budget checks in hot loops: `tick()` does one integer
/// increment per call and only consults the clock every `period` calls
/// (rounded up to a power of two). Once exceeded, the verdict is sticky.
#[derive(Debug)]
pub struct BudgetTicker {
    budget: RunBudget,
    mask: u32,
    count: u32,
    exceeded: Option<BudgetExceeded>,
}

impl BudgetTicker {
    /// A ticker over `budget` checking the clock every `period` ticks.
    #[must_use]
    pub fn new(budget: RunBudget, period: u32) -> Self {
        BudgetTicker {
            budget,
            mask: period.max(1).next_power_of_two() - 1,
            count: 0,
            exceeded: None,
        }
    }

    /// Registers one unit of work; periodically performs a full check.
    ///
    /// # Errors
    ///
    /// The sticky [`BudgetExceeded`] verdict once the budget is spent.
    #[inline]
    pub fn tick(&mut self) -> Result<(), BudgetExceeded> {
        if let Some(e) = self.exceeded {
            return Err(e);
        }
        self.count = self.count.wrapping_add(1);
        if self.count & self.mask == 0 {
            self.check_now()?;
        }
        Ok(())
    }

    /// Performs an immediate (non-amortized) check.
    ///
    /// # Errors
    ///
    /// The sticky [`BudgetExceeded`] verdict once the budget is spent.
    pub fn check_now(&mut self) -> Result<(), BudgetExceeded> {
        if let Some(e) = self.exceeded {
            return Err(e);
        }
        match self.budget.check() {
            Ok(()) => Ok(()),
            Err(e) => {
                self.exceeded = Some(e);
                Err(e)
            }
        }
    }

    /// The sticky verdict, if the budget was exceeded.
    #[must_use]
    pub fn exceeded(&self) -> Option<BudgetExceeded> {
        self.exceeded
    }

    /// The underlying budget.
    #[must_use]
    pub fn budget(&self) -> &RunBudget {
        &self.budget
    }
}

/// A structured record of one degradation decision: which phase gave
/// ground, what it did instead, and why. Attached to partial results
/// and emitted into run reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradationNote {
    /// Pipeline phase that degraded (e.g. `clique_enumeration`).
    pub phase: String,
    /// What the phase did instead (e.g. `greedy_fallback`).
    pub action: String,
    /// Human-readable specifics (counts, limits hit).
    pub detail: String,
}

impl DegradationNote {
    /// Builds a note.
    #[must_use]
    pub fn new(phase: &str, action: &str, detail: impl Into<String>) -> Self {
        DegradationNote {
            phase: phase.to_owned(),
            action: action.to_owned(),
            detail: detail.into(),
        }
    }

    /// The note as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("phase", Json::Str(self.phase.clone())),
            ("action", Json::Str(self.action.clone())),
            ("detail", Json::Str(self.detail.clone())),
        ])
    }
}

impl fmt::Display for DegradationNote {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.phase, self.action, self.detail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_budget_never_trips() {
        let b = RunBudget::unlimited();
        assert!(b.deadline().is_none());
        assert!(!b.expired());
        assert!(b.check().is_ok());
        assert_eq!(b.remaining(), None);
        let sub = b.sub(0.5);
        assert!(sub.deadline().is_none());
    }

    #[test]
    fn zero_deadline_expires_immediately() {
        let b = RunBudget::with_deadline(Duration::ZERO);
        assert!(b.expired());
        assert_eq!(b.check(), Err(BudgetExceeded::Deadline));
        assert_eq!(b.remaining(), Some(Duration::ZERO));
    }

    #[test]
    fn cancellation_propagates_through_clones_and_subs() {
        let b = RunBudget::with_deadline(Duration::from_secs(3600));
        let sub = b.sub(0.25);
        assert!(sub.check().is_ok());
        b.cancel_token().cancel();
        assert_eq!(b.check(), Err(BudgetExceeded::Cancelled));
        assert_eq!(sub.check(), Err(BudgetExceeded::Cancelled));
        // Cancellation outranks an expired deadline.
        let spent = RunBudget::with_deadline(Duration::ZERO);
        spent.cancel_token().cancel();
        assert_eq!(spent.check(), Err(BudgetExceeded::Cancelled));
    }

    #[test]
    fn sub_budget_never_outlives_parent() {
        let b = RunBudget::with_deadline(Duration::from_millis(50));
        let sub = b.sub(1.0);
        assert!(sub.deadline().unwrap() <= b.deadline().unwrap());
        let tiny = b.sub(0.0);
        assert!(tiny.expired());
    }

    #[test]
    fn ticker_is_sticky_and_amortized() {
        let mut t = BudgetTicker::new(RunBudget::with_deadline(Duration::ZERO), 8);
        // The first 7 ticks are free (amortized); the 8th checks.
        let mut tripped_at = None;
        for i in 1..=16 {
            if t.tick().is_err() {
                tripped_at = Some(i);
                break;
            }
        }
        assert_eq!(tripped_at, Some(8));
        assert_eq!(t.exceeded(), Some(BudgetExceeded::Deadline));
        assert_eq!(t.tick(), Err(BudgetExceeded::Deadline));
    }

    #[test]
    fn ticker_unlimited_is_free() {
        let mut t = BudgetTicker::new(RunBudget::unlimited(), 1024);
        for _ in 0..10_000 {
            assert!(t.tick().is_ok());
        }
        assert_eq!(t.exceeded(), None);
    }

    #[test]
    fn staged_split_matches_static_chain_under_full_pressure() {
        // The framework's weights [0.25, 0.52, 0.14, 0.09] renormalize
        // to the historical static fractions 0.25 / ~0.70 / ~0.60 / 1.0
        // when every phase consumes its whole slice.
        let b = RunBudget::with_deadline(Duration::from_secs(100));
        let mut stages = b.staged(&[0.25, 0.52, 0.14, 0.09]);
        let rare = stages.next_stage().remaining().unwrap();
        assert!(
            rare >= Duration::from_secs(24) && rare <= Duration::from_secs(26),
            "rare slice should be ~25s, got {rare:?}"
        );
    }

    #[test]
    fn fast_rare_extraction_donates_budget_to_clique_stage() {
        // With a static chain, the clique phase is pre-allocated 14% of
        // the pipeline budget. When the rare-extraction and compat
        // stages complete (here: instantly, without consuming their
        // slices), the staged split hands the clique stage ~61% of the
        // nearly-untouched remainder — the donated slack.
        let b = RunBudget::with_deadline(Duration::from_secs(100));
        let mut stages = b.staged(&[0.25, 0.52, 0.14, 0.09]);
        let _rare = stages.next_stage(); // completes immediately
        let _compat = stages.next_stage(); // completes immediately
        let clique = stages.next_stage().remaining().unwrap();
        assert!(
            clique > Duration::from_secs(50),
            "clique stage should inherit donated slack (~61s), got {clique:?}; \
             a static pre-allocation would cap it at 14s"
        );
        // The final stage receives the full remainder.
        let insertion = stages.next_stage().remaining().unwrap();
        assert!(insertion > Duration::from_secs(90), "got {insertion:?}");
        // Past the last weight: still the full remainder, no panic.
        assert!(stages.next_stage().remaining().unwrap() > Duration::from_secs(90));
    }

    #[test]
    fn staged_split_of_unlimited_budget_is_unlimited() {
        let b = RunBudget::unlimited();
        let mut stages = b.staged(&[0.5, 0.5]);
        assert!(stages.next_stage().deadline().is_none());
        assert!(stages.next_stage().deadline().is_none());
        // Cancellation still propagates through staged children.
        let b = RunBudget::unlimited();
        let mut stages = b.staged(&[1.0]);
        let child = stages.next_stage();
        b.cancel_token().cancel();
        assert_eq!(child.check(), Err(BudgetExceeded::Cancelled));
    }

    #[test]
    fn degradation_note_serializes() {
        let note = DegradationNote::new("clique_enumeration", "greedy_fallback", "budget spent");
        let json = note.to_json();
        assert_eq!(
            json.get("phase").unwrap().as_str(),
            Some("clique_enumeration")
        );
        assert_eq!(
            json.get("action").unwrap().as_str(),
            Some("greedy_fallback")
        );
        assert!(note.to_string().contains("greedy_fallback"));
    }
}
