use std::error::Error;
use std::fmt;

use route_maze::CostModel;

/// Order in which nets are first attempted.
///
/// Rip-up/reroute makes the router far less order-sensitive than the
/// sequential baseline, but the initial order still affects how much
/// modification work is needed; the ablation benches sweep this choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NetOrder {
    /// Smallest pin bounding box first (default; classic heuristic).
    #[default]
    ShortFirst,
    /// Largest pin bounding box first.
    LongFirst,
    /// Most pins first.
    PinCountDesc,
    /// Most-contested first: nets whose pin bounding boxes overlap the
    /// most other nets' boxes are routed before the easy ones.
    CongestionFirst,
    /// The order nets were declared in the problem.
    Declared,
}

/// How the interference penalty of a net grows with its rip count.
///
/// The growth schedule is the heart of the finite-termination argument:
/// as long as penalties are unbounded and monotone, every net eventually
/// becomes more expensive to rip than to detour around. Geometric growth
/// (the default) reaches that point exponentially faster than linear
/// growth; the ablation benches compare the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PenaltyGrowth {
    /// `base << min(rips, cap)` — doubles per rip (default).
    #[default]
    Geometric,
    /// `base * (1 + min(rips, 2^cap))` — grows by `base` per rip.
    Linear,
}

/// Tuning parameters of the [`MightyRouter`](crate::MightyRouter).
///
/// Prefer [`RouterConfig::builder`] over filling fields directly: the
/// builder rejects configurations that would silently misbehave (a zero
/// attempt budget, a zero base penalty, an overflowing penalty cap),
/// while struct-literal construction accepts anything. Direct field
/// mutation remains available for ablation sweeps but is considered a
/// legacy interface and may lose fields to the builder in a future
/// revision.
///
/// # Examples
///
/// ```
/// use mighty::{RouterConfig, NetOrder};
///
/// // An ablation configuration: strong modification only.
/// let cfg = RouterConfig::builder()
///     .weak(false)
///     .order(NetOrder::LongFirst)
///     .build()?;
/// assert!(cfg.strong);
/// # Ok::<(), mighty::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouterConfig {
    /// Path-search cost weights.
    pub cost: CostModel,
    /// Enable weak modification (push blocking wiring aside in place).
    pub weak: bool,
    /// Enable strong modification (rip blocking wiring, re-enqueue it).
    pub strong: bool,
    /// Crossing penalty for a never-ripped net's slot.
    pub base_penalty: u64,
    /// Escalation schedule of the crossing penalty with rip count.
    pub penalty_growth: PenaltyGrowth,
    /// Cap on the escalation exponent (geometric) or on `log2` of the
    /// multiplier (linear). Growth is what guarantees termination.
    pub max_penalty_doublings: u32,
    /// Attempts allowed per net before it is declared failed.
    pub max_attempts: u32,
    /// Global cap on queue events; `0` selects `64 x queued nets + 256`,
    /// sized by the nets the run starts with unconnected.
    pub max_events: usize,
    /// Initial net order.
    pub order: NetOrder,
}

impl RouterConfig {
    /// Crossing penalty per slot of a net that has been ripped `rips`
    /// times, under the configured [`PenaltyGrowth`] schedule.
    pub fn penalty(&self, rips: u32) -> u64 {
        match self.penalty_growth {
            PenaltyGrowth::Geometric => self.base_penalty << rips.min(self.max_penalty_doublings),
            PenaltyGrowth::Linear => {
                let cap = 1u64 << self.max_penalty_doublings.min(32);
                self.base_penalty * (1 + u64::from(rips).min(cap))
            }
        }
    }

    /// A configuration with all modification disabled: behaves like the
    /// sequential baseline (used as the control in ablations).
    pub fn no_modification() -> Self {
        RouterConfig { weak: false, strong: false, ..RouterConfig::default() }
    }

    /// Starts a validating [`RouterConfigBuilder`] seeded with the
    /// defaults. See the type-level docs for why this is preferred over
    /// struct-literal construction.
    pub fn builder() -> RouterConfigBuilder {
        RouterConfigBuilder::default()
    }
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            cost: CostModel::default(),
            weak: true,
            strong: true,
            base_penalty: 8,
            penalty_growth: PenaltyGrowth::Geometric,
            max_penalty_doublings: 12,
            max_attempts: 12,
            max_events: 0,
            order: NetOrder::ShortFirst,
        }
    }
}

/// A configuration that failed validation in a builder — shared by
/// [`RouterConfigBuilder::build`] and
/// [`ServiceConfigBuilder::build`](crate::serve::ServiceConfigBuilder::build).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// `max_attempts` was zero: every net would fail before its first
    /// search.
    ZeroAttemptBudget,
    /// `base_penalty` was zero: interference would be free, rip counts
    /// would never raise crossing costs, and termination would rest on
    /// the event budget alone.
    ZeroBasePenalty,
    /// `max_penalty_doublings` exceeded 63: the geometric schedule's
    /// shift would overflow `u64`.
    DoublingsOverflow {
        /// The requested exponent cap.
        doublings: u32,
    },
    /// A zero wall-clock deadline: every instance would be disqualified
    /// before routing. Use `None` to disable the check instead.
    ZeroDeadline,
    /// A worker/job count beyond the thread-spawn cap.
    JobsOverCap {
        /// The requested count.
        jobs: usize,
        /// The cap it exceeded.
        cap: usize,
    },
    /// A zero admission-queue capacity: the service could never accept
    /// a request.
    ZeroQueueCapacity,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroAttemptBudget => {
                write!(f, "max_attempts must be at least 1")
            }
            ConfigError::ZeroBasePenalty => {
                write!(f, "base_penalty must be at least 1")
            }
            ConfigError::DoublingsOverflow { doublings } => {
                write!(f, "max_penalty_doublings {doublings} would overflow u64 (cap is 63)")
            }
            ConfigError::ZeroDeadline => {
                write!(f, "deadline must be positive (use None to disable the check)")
            }
            ConfigError::JobsOverCap { jobs, cap } => {
                write!(f, "jobs {jobs} exceeds the thread cap {cap}")
            }
            ConfigError::ZeroQueueCapacity => {
                write!(f, "queue capacity must be at least 1")
            }
        }
    }
}

impl Error for ConfigError {}

/// Validating builder for [`RouterConfig`] — the supported construction
/// path. Obtained from [`RouterConfig::builder`].
///
/// # Examples
///
/// ```
/// use mighty::{ConfigError, RouterConfig};
///
/// let cfg = RouterConfig::builder().base_penalty(4).max_attempts(20).build()?;
/// assert_eq!(cfg.base_penalty, 4);
///
/// // Invalid combinations are rejected instead of misbehaving at
/// // routing time:
/// assert_eq!(
///     RouterConfig::builder().max_attempts(0).build(),
///     Err(ConfigError::ZeroAttemptBudget),
/// );
/// # Ok::<(), ConfigError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct RouterConfigBuilder {
    cfg: RouterConfig,
}

impl RouterConfigBuilder {
    /// Sets the path-search cost weights.
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.cfg.cost = cost;
        self
    }

    /// Enables or disables weak modification.
    pub fn weak(mut self, weak: bool) -> Self {
        self.cfg.weak = weak;
        self
    }

    /// Enables or disables strong modification.
    pub fn strong(mut self, strong: bool) -> Self {
        self.cfg.strong = strong;
        self
    }

    /// Sets the crossing penalty for a never-ripped net's slot.
    pub fn base_penalty(mut self, penalty: u64) -> Self {
        self.cfg.base_penalty = penalty;
        self
    }

    /// Sets the escalation schedule of the crossing penalty.
    pub fn penalty_growth(mut self, growth: PenaltyGrowth) -> Self {
        self.cfg.penalty_growth = growth;
        self
    }

    /// Sets the cap on the escalation exponent directly.
    pub fn max_penalty_doublings(mut self, doublings: u32) -> Self {
        self.cfg.max_penalty_doublings = doublings;
        self
    }

    /// Sets the attempts allowed per net before it is declared failed.
    pub fn max_attempts(mut self, attempts: u32) -> Self {
        self.cfg.max_attempts = attempts;
        self
    }

    /// Sets the global queue-event cap (`0` = `64 x queued nets + 256`).
    pub fn max_events(mut self, events: usize) -> Self {
        self.cfg.max_events = events;
        self
    }

    /// Sets the initial net order.
    pub fn order(mut self, order: NetOrder) -> Self {
        self.cfg.order = order;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for a zero attempt budget, a zero base
    /// penalty, or an exponent cap that would overflow `u64`.
    pub fn build(self) -> Result<RouterConfig, ConfigError> {
        let cfg = self.cfg;
        if cfg.max_attempts == 0 {
            return Err(ConfigError::ZeroAttemptBudget);
        }
        if cfg.base_penalty == 0 {
            return Err(ConfigError::ZeroBasePenalty);
        }
        if cfg.max_penalty_doublings > 63 {
            return Err(ConfigError::DoublingsOverflow { doublings: cfg.max_penalty_doublings });
        }
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn penalty_escalates_and_saturates() {
        let cfg = RouterConfig { base_penalty: 4, max_penalty_doublings: 3, ..Default::default() };
        assert_eq!(cfg.penalty(0), 4);
        assert_eq!(cfg.penalty(1), 8);
        assert_eq!(cfg.penalty(3), 32);
        assert_eq!(cfg.penalty(100), 32);
    }

    #[test]
    fn linear_penalty_grows_by_base() {
        let cfg = RouterConfig {
            base_penalty: 4,
            penalty_growth: PenaltyGrowth::Linear,
            max_penalty_doublings: 3,
            ..Default::default()
        };
        assert_eq!(cfg.penalty(0), 4);
        assert_eq!(cfg.penalty(1), 8);
        assert_eq!(cfg.penalty(3), 16);
        // Saturates at base * (1 + 2^cap).
        assert_eq!(cfg.penalty(1000), 4 * 9);
    }

    #[test]
    fn geometric_eventually_dwarfs_linear() {
        let geo = RouterConfig::default();
        let lin = RouterConfig { penalty_growth: PenaltyGrowth::Linear, ..Default::default() };
        assert!(geo.penalty(10) > lin.penalty(10));
    }

    #[test]
    fn no_modification_control() {
        let cfg = RouterConfig::no_modification();
        assert!(!cfg.weak && !cfg.strong);
    }

    #[test]
    fn builder_defaults_match_default() {
        assert_eq!(RouterConfig::builder().build().unwrap(), RouterConfig::default());
    }

    #[test]
    fn builder_rejects_zero_budgets() {
        assert_eq!(
            RouterConfig::builder().max_attempts(0).build(),
            Err(ConfigError::ZeroAttemptBudget)
        );
        assert_eq!(
            RouterConfig::builder().base_penalty(0).build(),
            Err(ConfigError::ZeroBasePenalty)
        );
    }

    #[test]
    fn builder_rejects_shift_overflow() {
        assert_eq!(
            RouterConfig::builder().max_penalty_doublings(64).build(),
            Err(ConfigError::DoublingsOverflow { doublings: 64 })
        );
        assert!(RouterConfig::builder().max_penalty_doublings(63).build().is_ok());
    }

    #[test]
    fn config_errors_render() {
        for e in [
            ConfigError::ZeroAttemptBudget,
            ConfigError::ZeroBasePenalty,
            ConfigError::DoublingsOverflow { doublings: 64 },
            ConfigError::ZeroDeadline,
            ConfigError::JobsOverCap { jobs: 9999, cap: 1024 },
            ConfigError::ZeroQueueCapacity,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
