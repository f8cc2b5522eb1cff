//! Runtime configuration: the grain-size policy and the placement
//! policy (round-robin or least-loaded).

use std::fmt;

/// Object placement (load-distribution) policy used by the object
/// managers when a new parallel object must be created remotely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Placement {
    /// Cycle through nodes in order — ParC++'s default policy.
    #[default]
    RoundRobin,
    /// Query every OM's load and pick the least loaded node (the OMs'
    /// cooperation of Fig. 3; one probe sweep serves a short burst).
    LeastLoaded,
}

impl fmt::Display for Placement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Placement::RoundRobin => f.write_str("round-robin"),
            Placement::LeastLoaded => f.write_str("least-loaded"),
        }
    }
}

/// Grain-size adaptation settings (§3.1's two mechanisms).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GrainConfig {
    /// `maxCalls` of Fig. 7: how many asynchronous calls are packed into
    /// one aggregate message. `1` disables aggregation.
    pub aggregation_factor: usize,
    /// Fraction of object creations agglomerated locally, in `[0, 1]`.
    /// `0.0` = always distribute (full parallelism), `1.0` = always local
    /// (parallelism fully removed). Intermediate values let the adaptive
    /// controller remove parallelism gradually.
    pub agglomeration_ratio: f64,
    /// Enable the run-time adapter (overrides the two static knobs from
    /// measured call costs).
    pub adaptive: bool,
}

impl Default for GrainConfig {
    fn default() -> Self {
        GrainConfig { aggregation_factor: 1, agglomeration_ratio: 0.0, adaptive: false }
    }
}

impl GrainConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// [`crate::ParcError::Config`] when a knob is out of range.
    pub fn validate(&self) -> Result<(), crate::ParcError> {
        if self.aggregation_factor == 0 {
            return Err(crate::ParcError::Config {
                detail: "aggregation_factor must be at least 1".into(),
            });
        }
        if !(0.0..=1.0).contains(&self.agglomeration_ratio) {
            return Err(crate::ParcError::Config {
                detail: format!(
                    "agglomeration_ratio {} outside [0, 1]",
                    self.agglomeration_ratio
                ),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_disables_both_mechanisms() {
        let c = GrainConfig::default();
        assert_eq!(c.aggregation_factor, 1);
        assert_eq!(c.agglomeration_ratio, 0.0);
        assert!(!c.adaptive);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn zero_aggregation_rejected() {
        let c = GrainConfig { aggregation_factor: 0, ..GrainConfig::default() };
        assert!(c.validate().is_err());
    }

    #[test]
    fn out_of_range_ratio_rejected() {
        for r in [-0.1, 1.1, f64::NAN] {
            let c = GrainConfig { agglomeration_ratio: r, ..GrainConfig::default() };
            assert!(c.validate().is_err(), "{r}");
        }
    }

    #[test]
    fn placement_displays() {
        assert_eq!(Placement::RoundRobin.to_string(), "round-robin");
        assert_eq!(Placement::LeastLoaded.to_string(), "least-loaded");
        assert_eq!(Placement::default(), Placement::RoundRobin);
    }
}
