//! Engine configuration.

use pmck_bch::DecodePolicy;

use crate::layout::{ChipkillLayout, ProtectionTier};

/// Configuration of the chipkill-correct engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipkillConfig {
    /// The protection tier the rank runs at; resolves to one of the
    /// [`Layout`](crate::Layout) implementations. `layout`/`threshold` must agree with
    /// it — use [`ChipkillConfig::for_tier`] to derive all three.
    pub tier: ProtectionTier,
    /// Rank/ECC geometry.
    pub layout: ChipkillLayout,
    /// Maximum RS corrections accepted at runtime before distrusting the
    /// result and falling back to VLEW decoding (paper §V-C: 2).
    pub threshold: usize,
    /// Whether VLEW code-bit updates coalesce in the per-chip ECC Update
    /// Registerfile (EUR, §V-D). Disabling models the no-coalescing
    /// ablation; functional results are identical either way.
    pub eur_enabled: bool,
    /// How far VLEW decoding reaches: `Bounded` stops at the designed
    /// radius `t`; `BeyondBound` additionally tries the unraveling list
    /// decoder at radius `t + 1` before declaring a word uncorrectable.
    pub decode_policy: DecodePolicy,
}

impl Default for ChipkillConfig {
    fn default() -> Self {
        ChipkillConfig {
            tier: ProtectionTier::Paper,
            layout: ChipkillLayout::default(),
            threshold: 2,
            eur_enabled: true,
            decode_policy: DecodePolicy::Bounded,
        }
    }
}

impl ChipkillConfig {
    /// The paper's configuration with a different acceptance threshold
    /// (for the threshold ablation of §V-C).
    pub fn with_threshold(threshold: usize) -> Self {
        ChipkillConfig {
            threshold,
            ..Self::default()
        }
    }

    /// The configuration for a protection tier: geometry and threshold
    /// both come from the tier's [`Layout`](crate::Layout), everything else stays at
    /// the defaults.
    pub fn for_tier(tier: ProtectionTier) -> Self {
        let layout = tier.layout();
        ChipkillConfig {
            tier,
            layout: layout.geometry(),
            threshold: layout.rs_threshold(),
            ..Self::default()
        }
    }

    /// Whether the configured tier runs the VLEW boot tier.
    pub fn vlew_enabled(&self) -> bool {
        self.tier.layout().vlew_enabled()
    }

    /// Bonus blocks per stripe reclaimed from the code area (RS-only
    /// tier; 0 for VLEW-bearing tiers).
    pub fn bonus_blocks_per_stripe(&self) -> usize {
        self.tier.layout().bonus_blocks_per_stripe()
    }

    /// Total storage cost of the configured tier.
    pub fn total_storage_cost(&self) -> f64 {
        self.tier.layout().total_storage_cost()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = ChipkillConfig::default();
        assert_eq!(c.threshold, 2);
        assert!(c.eur_enabled);
        assert_eq!(c.decode_policy, DecodePolicy::Bounded);
        assert_eq!(c.layout.blocks_per_vlew(), 32);
    }

    #[test]
    fn threshold_override() {
        assert_eq!(ChipkillConfig::with_threshold(4).threshold, 4);
    }

    #[test]
    fn for_tier_derives_geometry_and_threshold_together() {
        let paper = ChipkillConfig::for_tier(ProtectionTier::Paper);
        assert_eq!(paper, ChipkillConfig::default());

        let rs_only = ChipkillConfig::for_tier(ProtectionTier::RsOnly);
        assert_eq!(rs_only.threshold, 4);
        assert!(!rs_only.vlew_enabled());
        assert_eq!(rs_only.bonus_blocks_per_stripe(), 4);

        let dense = ChipkillConfig::for_tier(ProtectionTier::Dense);
        assert_eq!(dense.layout.blocks_per_vlew(), 16);
        assert_eq!(dense.threshold, 2);
        assert!(dense.total_storage_cost() > paper.total_storage_cost());
    }
}
