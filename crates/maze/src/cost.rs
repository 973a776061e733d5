use route_geom::{Axis, Layer};

/// Weights used by the maze search to score candidate paths.
///
/// All weights are in abstract cost units; only their ratios matter. The
/// default reproduces the conventions of classic detailed routers: unit
/// wire steps, vias three times as expensive as a step, and a mild
/// penalty for wiring against a layer's preferred direction.
///
/// `step` and `via` must be at least 1, so that every move costs
/// something: the search reads its path back from the distance field,
/// where a distance of 0 must mean "source". Every model in the
/// workspace meets this; a debug build asserts it on each search.
///
/// # Examples
///
/// ```
/// use route_maze::CostModel;
/// use route_geom::{Axis, Layer};
///
/// let cost = CostModel::default();
/// // Preferred-direction step is cheap...
/// assert_eq!(cost.step_cost(Layer::M1, Axis::Horizontal), cost.step);
/// // ...wrong-way step pays the penalty.
/// assert_eq!(
///     cost.step_cost(Layer::M1, Axis::Vertical),
///     cost.step + cost.wrong_way
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostModel {
    /// Cost of one wire step in a layer's preferred direction.
    pub step: u32,
    /// Cost of a via (layer change).
    pub via: u32,
    /// Extra cost of a step against the layer's preferred axis.
    pub wrong_way: u32,
}

impl CostModel {
    /// Uniform unit-cost model: pure Lee wavefront behaviour (vias still
    /// cost one step; no direction preference).
    pub const fn uniform() -> Self {
        CostModel { step: 1, via: 1, wrong_way: 0 }
    }

    /// Cost of a single wire step on `layer` travelling along `axis`.
    pub const fn step_cost(&self, layer: Layer, axis: Axis) -> u32 {
        if matches!(
            (layer.preferred_axis(), axis),
            (Axis::Horizontal, Axis::Horizontal) | (Axis::Vertical, Axis::Vertical)
        ) {
            self.step
        } else {
            self.step + self.wrong_way
        }
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel { step: 1, via: 3, wrong_way: 1 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_ratios() {
        let c = CostModel::default();
        assert!(c.via > c.step);
        assert_eq!(c.step_cost(Layer::M2, Axis::Vertical), 1);
        assert_eq!(c.step_cost(Layer::M2, Axis::Horizontal), 2);
    }

    #[test]
    fn uniform_has_no_preferences() {
        let c = CostModel::uniform();
        for l in Layer::ALL {
            for a in [Axis::Horizontal, Axis::Vertical] {
                assert_eq!(c.step_cost(l, a), 1);
            }
        }
    }
}
