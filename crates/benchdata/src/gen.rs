//! Seeded random workload generators.
//!
//! Every generator is a pure function of its configuration (including the
//! seed), so experiments are reproducible run to run and machine to
//! machine.

use route_channel::ChannelSpec;
use route_geom::{Point, Rect};
use route_model::{PinSide, Problem, ProblemBuilder};

use crate::rng::SplitMix64;

/// Configuration of the random switchbox generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwitchboxGen {
    /// Grid width.
    pub width: u32,
    /// Grid height.
    pub height: u32,
    /// Number of two-pin nets.
    pub nets: u32,
    /// RNG seed.
    pub seed: u64,
}

impl SwitchboxGen {
    /// Generates the switchbox problem: each net gets two pins on
    /// distinct random boundary positions (natural entry layers).
    ///
    /// # Panics
    ///
    /// Panics if the boundary cannot host `2 * nets` pins.
    pub fn build(&self) -> Problem {
        let mut rng = SplitMix64::new(self.seed);
        let mut slots = boundary_slots(self.width, self.height);
        assert!(
            slots.len() >= (self.nets as usize) * 2,
            "boundary too small for {} nets",
            self.nets
        );
        rng.shuffle(&mut slots);
        let mut builder = ProblemBuilder::switchbox(self.width, self.height);
        for i in 0..self.nets {
            let (s1, o1) = slots.pop().expect("enough slots");
            let (s2, o2) = slots.pop().expect("enough slots");
            builder.net(format!("n{i}")).pin_side(s1, o1).pin_side(s2, o2);
        }
        builder.build().expect("generated pins are distinct and in bounds")
    }
}

/// All boundary pin slots of a `width x height` box as `(side, offset)`
/// pairs, corners assigned to the left/right sides.
fn boundary_slots(width: u32, height: u32) -> Vec<(PinSide, u32)> {
    let mut slots = Vec::new();
    for y in 0..height {
        slots.push((PinSide::Left, y));
        slots.push((PinSide::Right, y));
    }
    for x in 1..width.saturating_sub(1) {
        slots.push((PinSide::Top, x));
        slots.push((PinSide::Bottom, x));
    }
    slots
}

/// Configuration of the random channel generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelGen {
    /// Number of columns.
    pub width: usize,
    /// Number of nets.
    pub nets: u32,
    /// Average extra pins per net beyond two (multi-pin pressure),
    /// in percent (0 = all two-pin nets, 100 = one extra pin on average).
    pub extra_pin_pct: u32,
    /// Maximum span of a net's pins in columns (`0` = unbounded). Real
    /// channels (standard-cell rows) have localized nets; bounding the
    /// span keeps the density realistic for a given net count.
    pub span_window: usize,
    /// RNG seed.
    pub seed: u64,
}

impl ChannelGen {
    /// Generates a channel spec: pins are scattered over both edges so
    /// that every net has at least two pins, no column holds two pins of
    /// the same edge, and (when `span_window > 0`) each net's pins stay
    /// within a window of that many columns.
    ///
    /// # Panics
    ///
    /// Panics if the channel cannot host the requested pins
    /// (`2 * width` slots total, and per-window capacity when
    /// `span_window > 0`).
    pub fn build(&self) -> ChannelSpec {
        let mut rng = SplitMix64::new(self.seed);
        let mut top = vec![0u32; self.width];
        let mut bottom = vec![0u32; self.width];
        let window =
            if self.span_window == 0 { self.width } else { self.span_window.min(self.width) };
        let mut free_top = vec![true; self.width];
        let mut free_bottom = vec![true; self.width];

        for net0 in 0..self.nets {
            let net = net0 + 1;
            let budget = 2 + u32::from(rng.chance(self.extra_pin_pct));
            // Find a window with enough free slots, retrying other
            // starting columns before giving up.
            let mut placed = false;
            for _ in 0..4 * self.width {
                let start = rng.below((self.width - window) as u64 + 1) as usize;
                let mut open: Vec<(bool, usize)> = (start..start + window)
                    .flat_map(|c| {
                        let mut v = Vec::new();
                        if free_top[c] {
                            v.push((true, c));
                        }
                        if free_bottom[c] {
                            v.push((false, c));
                        }
                        v
                    })
                    .collect();
                if (open.len() as u32) < budget {
                    continue;
                }
                rng.shuffle(&mut open);
                for _ in 0..budget {
                    let (is_top, c) = open.pop().expect("capacity checked");
                    if is_top {
                        top[c] = net;
                        free_top[c] = false;
                    } else {
                        bottom[c] = net;
                        free_bottom[c] = false;
                    }
                }
                placed = true;
                break;
            }
            assert!(placed, "channel too crowded for net {net} (window {window})");
        }
        ChannelSpec::new(top, bottom).expect("every net got at least two pins")
    }
}

/// Configuration of the obstructed-region generator (experiment T3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObstructedGen {
    /// Grid width.
    pub width: u32,
    /// Grid height.
    pub height: u32,
    /// Number of two-pin nets.
    pub nets: u32,
    /// Obstacle coverage of the interior, in percent of cells.
    pub obstacle_pct: u32,
    /// RNG seed.
    pub seed: u64,
}

impl ObstructedGen {
    /// Generates a switchbox with random full-stack obstacle blocks in
    /// its interior (never touching the boundary ring, where pins live).
    ///
    /// # Panics
    ///
    /// Panics if the boundary cannot host `2 * nets` pins.
    pub fn build(&self) -> Problem {
        let mut rng = SplitMix64::new(self.seed ^ 0x0b57);
        let mut builder = ProblemBuilder::switchbox(self.width, self.height);
        // Obstacles: random 1x1..3x2 blocks in the interior.
        let interior_cells = (self.width.saturating_sub(2) * self.height.saturating_sub(2)) as u64;
        let target = interior_cells * self.obstacle_pct as u64 / 100;
        let mut placed = 0u64;
        let mut guard = 0;
        while placed < target && guard < 10_000 {
            guard += 1;
            if self.width <= 4 || self.height <= 4 {
                break;
            }
            let w = rng.range(1, 4) as u32;
            let h = rng.range(1, 3) as u32;
            let x = rng.range(1, u64::from(self.width.saturating_sub(w).max(2))) as u32;
            let y = rng.range(1, u64::from(self.height.saturating_sub(h).max(2))) as u32;
            let rect = Rect::with_size(Point::new(x as i32, y as i32), w, h);
            if rect.max().x as u32 >= self.width - 1 || rect.max().y as u32 >= self.height - 1 {
                continue;
            }
            builder.obstacle_rect(rect);
            placed += rect.area();
        }
        // Pins on the boundary, like the plain switchbox generator.
        let mut slots = boundary_slots(self.width, self.height);
        assert!(slots.len() >= (self.nets as usize) * 2, "boundary too small");
        rng.shuffle(&mut slots);
        for i in 0..self.nets {
            let (s1, o1) = slots.pop().expect("enough slots");
            let (s2, o2) = slots.pop().expect("enough slots");
            builder.net(format!("n{i}")).pin_side(s1, o1).pin_side(s2, o2);
        }
        builder.build().expect("pins on boundary never collide with interior obstacles")
    }
}

/// Configuration of the synthetic chip generator: a chip-scale grid
/// with macro-block obstacles and mostly-local multi-pin nets, sized
/// for the hierarchical (tile) flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChipGen {
    /// Grid width.
    pub width: u32,
    /// Grid height.
    pub height: u32,
    /// Number of nets.
    pub nets: u32,
    /// Number of macro obstacle blocks scattered over the interior.
    pub macros: u32,
    /// Chebyshev radius of a local net's pin spread, in cells. Real
    /// chips are dominated by short wires; keeping most nets inside a
    /// window makes per-tile detailed routing meaningful.
    pub span: u32,
    /// Percent of nets whose window is widened to `4 * span` (the
    /// chip-crossing minority that exercises the global planner).
    pub long_pct: u32,
    /// Percent of nets that get a third pin.
    pub multi_pct: u32,
    /// RNG seed.
    pub seed: u64,
}

impl ChipGen {
    /// A small-chip baseline (96x96, 700 nets): every knob has a value,
    /// so call sites override only what they sweep.
    pub fn small(seed: u64) -> Self {
        ChipGen {
            width: 96,
            height: 96,
            nets: 700,
            macros: 6,
            span: 10,
            long_pct: 10,
            multi_pct: 20,
            seed,
        }
    }

    /// Generates the chip problem: macro obstacles first, then nets with
    /// 2-3 pins on `M1`, each net's pins confined to a random window.
    /// Pure function of the configuration, like every generator here.
    ///
    /// # Panics
    ///
    /// Panics if the grid cannot host the requested pins (the retry
    /// guard runs out of free cells).
    pub fn build(&self) -> Problem {
        use route_geom::Layer;
        let mut rng = SplitMix64::new(self.seed ^ 0xc419);
        let mut builder = ProblemBuilder::switchbox(self.width, self.height);

        // Macro blocks: full-stack rectangles in the interior, clear of
        // the outermost ring so boundary wiring always exists.
        let mut blocked = vec![false; (self.width * self.height) as usize];
        let cell = |p: Point| (p.y as u32 * self.width + p.x as u32) as usize;
        if self.width > 16 && self.height > 16 {
            for _ in 0..self.macros {
                let w = rng.range(4, 13) as u32;
                let h = rng.range(4, 13) as u32;
                let x = rng.range(1, u64::from(self.width - w - 1)) as i32;
                let y = rng.range(1, u64::from(self.height - h - 1)) as i32;
                let rect = Rect::with_size(Point::new(x, y), w, h);
                builder.obstacle_rect(rect);
                for p in rect.cells() {
                    blocked[cell(p)] = true;
                }
            }
        }

        // Nets: an anchor pin anywhere free, remaining pins inside the
        // net's window. Pins live on M1 and never share a cell (the
        // builder would reject the conflict).
        let mut used = blocked.clone();
        let free_at =
            |rng: &mut SplitMix64, used: &mut [bool], win: Option<(Point, u32)>| -> Option<Point> {
                for _ in 0..64 {
                    let p = match win {
                        None => Point::new(
                            rng.below(u64::from(self.width)) as i32,
                            rng.below(u64::from(self.height)) as i32,
                        ),
                        Some((c, r)) => {
                            let lo_x = c.x.saturating_sub(r as i32).max(0);
                            let hi_x = (c.x + r as i32).min(self.width as i32 - 1);
                            let lo_y = c.y.saturating_sub(r as i32).max(0);
                            let hi_y = (c.y + r as i32).min(self.height as i32 - 1);
                            Point::new(
                                lo_x + rng.below((hi_x - lo_x + 1) as u64) as i32,
                                lo_y + rng.below((hi_y - lo_y + 1) as u64) as i32,
                            )
                        }
                    };
                    if !used[cell(p)] {
                        used[cell(p)] = true;
                        return Some(p);
                    }
                }
                None
            };
        for i in 0..self.nets {
            let radius = if rng.chance(self.long_pct) { self.span * 4 } else { self.span };
            let pins = 2 + u64::from(rng.chance(self.multi_pct));
            let mut placed = false;
            'attempt: for _ in 0..64 {
                let Some(anchor) = free_at(&mut rng, &mut used, None) else { continue };
                let mut taken = vec![anchor];
                for _ in 1..pins {
                    match free_at(&mut rng, &mut used, Some((anchor, radius.max(1)))) {
                        Some(p) => taken.push(p),
                        None => {
                            // Window exhausted: release and retry the net.
                            for p in taken {
                                used[cell(p)] = false;
                            }
                            continue 'attempt;
                        }
                    }
                }
                let mut nb = builder.net(format!("n{i}"));
                for p in taken {
                    nb.pin_at(p, Layer::M1);
                }
                placed = true;
                break;
            }
            assert!(placed, "chip too crowded for net n{i} ({}x{})", self.width, self.height);
        }
        builder.build().expect("pins are distinct free cells by construction")
    }
}

/// A switchbox whose nets are *guaranteed routable*: the instance is
/// produced by carving `nets` disjoint straight bands and exposing their
/// endpoints as pins. Useful for completion-rate experiments where a
/// 100% ceiling must exist.
pub fn routable_switchbox(width: u32, height: u32, nets: u32, seed: u64) -> Problem {
    let mut rng = SplitMix64::new(seed ^ 0x9e37);
    let nets = nets.min(height.saturating_sub(2)).max(1);
    // Horizontal bands on distinct rows: trivially routable on M1.
    let mut rows: Vec<u32> = (1..height - 1).collect();
    rng.shuffle(&mut rows);
    let mut builder = ProblemBuilder::switchbox(width, height);
    for (i, &y) in rows.iter().take(nets as usize).enumerate() {
        builder.net(format!("band{i}")).pin_side(PinSide::Left, y).pin_side(PinSide::Right, y);
    }
    builder.build().expect("bands are disjoint")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switchbox_gen_is_deterministic() {
        let cfg = SwitchboxGen { width: 12, height: 10, nets: 8, seed: 7 };
        let a = cfg.build();
        let b = cfg.build();
        assert_eq!(a.nets(), b.nets());
        assert_eq!(a.nets().len(), 8);
    }

    #[test]
    fn switchbox_gen_seed_changes_instance() {
        let a = SwitchboxGen { width: 12, height: 10, nets: 8, seed: 1 }.build();
        let b = SwitchboxGen { width: 12, height: 10, nets: 8, seed: 2 }.build();
        assert_ne!(a.nets(), b.nets());
    }

    #[test]
    #[should_panic(expected = "boundary too small")]
    fn switchbox_gen_rejects_overfull() {
        let _ = SwitchboxGen { width: 3, height: 3, nets: 50, seed: 0 }.build();
    }

    #[test]
    fn channel_gen_produces_valid_specs() {
        let cfg = ChannelGen { width: 30, nets: 12, extra_pin_pct: 50, span_window: 0, seed: 11 };
        let spec = cfg.build();
        assert_eq!(spec.width(), 30);
        assert_eq!(spec.net_ids().len(), 12);
        assert!(spec.density() >= 1);
        // Determinism.
        assert_eq!(spec, cfg.build());
    }

    #[test]
    fn obstructed_gen_places_obstacles() {
        let cfg = ObstructedGen { width: 20, height: 20, nets: 6, obstacle_pct: 15, seed: 3 };
        let p = cfg.build();
        assert!(!p.obstacles().is_empty());
        assert_eq!(p.nets().len(), 6);
        // Zero obstacle percentage yields no obstacles.
        let clean = ObstructedGen { obstacle_pct: 0, ..cfg }.build();
        assert!(clean.obstacles().is_empty());
    }

    #[test]
    fn chip_gen_is_deterministic_and_mostly_local() {
        let cfg = ChipGen::small(5);
        let a = cfg.build();
        let b = cfg.build();
        assert_eq!(a.nets(), b.nets());
        assert_eq!(a.obstacles(), b.obstacles());
        assert_eq!(a.nets().len(), 700);
        assert!(!a.obstacles().is_empty());
        // The local majority stays within its window; only the long
        // minority (plus window clamping at the chip edge) exceeds it.
        let wide = a
            .nets()
            .iter()
            .filter(|n| {
                let first = n.pins[0].at;
                let bbox = n.pins.iter().fold(route_geom::Rect::cell(first), |acc, p| {
                    acc.union(&route_geom::Rect::cell(p.at))
                });
                bbox.width().max(bbox.height()) > 2 * cfg.span + 1
            })
            .count();
        assert!(wide * 4 < a.nets().len(), "{wide} of {} nets exceed the window", a.nets().len());
    }

    #[test]
    fn chip_gen_seed_changes_instance() {
        let a = ChipGen::small(1).build();
        let b = ChipGen::small(2).build();
        assert_ne!(a.nets(), b.nets());
    }

    #[test]
    fn routable_switchbox_is_routable_by_construction() {
        use route_maze::{sequential, CostModel, SearchArena};
        use route_model::NopObserver;
        let p = routable_switchbox(10, 8, 5, 42);
        let mut arena = SearchArena::new();
        let out = sequential::route_all(&mut arena, &p, CostModel::default(), &mut NopObserver);
        assert!(out.is_complete());
    }
}
