use std::fmt;

use route_geom::{Dir, Layer, Point, Rect, NUM_LAYERS};

use crate::NetId;

/// What occupies one grid cell on one layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Occupant {
    /// Nothing; wiring may be placed here.
    #[default]
    Free,
    /// Permanently unusable: an obstacle, or outside the routing region.
    Blocked,
    /// Wiring (or a pin) of the given net.
    Net(NetId),
}

impl Occupant {
    /// The net occupying this slot, if any.
    #[inline]
    pub const fn net(self) -> Option<NetId> {
        match self {
            Occupant::Net(n) => Some(n),
            _ => None,
        }
    }

    /// Whether the slot is free.
    #[inline]
    pub const fn is_free(self) -> bool {
        matches!(self, Occupant::Free)
    }
}

impl fmt::Display for Occupant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Occupant::Free => f.write_str("free"),
            Occupant::Blocked => f.write_str("blocked"),
            Occupant::Net(n) => write!(f, "{n}"),
        }
    }
}

/// One grid cell: per-layer occupancy plus optional vias between
/// adjacent layer pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Cell {
    /// Occupancy per layer, indexed by [`Layer::index`].
    pub occ: [Occupant; NUM_LAYERS],
    /// Net owning a via per adjacent layer pair, indexed by the lower
    /// layer (`[0]` = M1–M2, `[1]` = M2–M3).
    pub vias: [Option<NetId>; NUM_LAYERS - 1],
}

/// The two-layer occupancy grid of a routing area.
///
/// Cells outside the rectilinear routing region and cells covered by
/// obstacles are marked [`Occupant::Blocked`] at construction time, so
/// routers only ever need the occupancy query.
///
/// # Examples
///
/// ```
/// use route_model::{Grid, Occupant};
/// use route_geom::{Layer, Point};
///
/// let g = Grid::new(4, 3);
/// assert!(g.in_bounds(Point::new(3, 2)));
/// assert_eq!(g.occupant(Point::new(0, 0), Layer::M1), Occupant::Free);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grid {
    width: u32,
    height: u32,
    cells: Vec<Cell>,
    /// Bit-packed "is free" plane: one bit per cell per layer, one
    /// `u64` word per 64 row-major cells, `words` words per layer.
    /// Kept coherent with `cells` by every occupancy mutation.
    free: Vec<u64>,
    /// Words per layer plane in `free`.
    words: usize,
}

impl Grid {
    /// Creates an all-free grid of `width x height` cells.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "grid dimensions must be non-zero");
        let cells = width as usize * height as usize;
        let words = cells.div_ceil(64);
        let mut free = vec![u64::MAX; words * NUM_LAYERS];
        // Clear the tail bits past the last real cell so every set bit
        // corresponds to an actual free slot.
        let tail = cells % 64;
        if tail != 0 {
            for layer in 0..NUM_LAYERS {
                free[layer * words + words - 1] = (1u64 << tail) - 1;
            }
        }
        Grid { width, height, cells: vec![Cell::default(); cells], free, words }
    }

    /// Number of columns.
    #[inline]
    pub const fn width(&self) -> u32 {
        self.width
    }

    /// Number of rows.
    #[inline]
    pub const fn height(&self) -> u32 {
        self.height
    }

    /// The rectangle covering the whole grid.
    pub fn bounds(&self) -> Rect {
        Rect::new(Point::new(0, 0), Point::new(self.width as i32 - 1, self.height as i32 - 1))
    }

    /// Whether `p` lies on the grid.
    #[inline]
    pub const fn in_bounds(&self, p: Point) -> bool {
        p.x >= 0 && p.y >= 0 && (p.x as u32) < self.width && (p.y as u32) < self.height
    }

    #[inline]
    fn idx(&self, p: Point) -> usize {
        debug_assert!(self.in_bounds(p), "point {p} out of bounds");
        p.y as usize * self.width as usize + p.x as usize
    }

    /// The full cell at `p`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `p` is out of bounds.
    #[inline]
    pub fn cell(&self, p: Point) -> Cell {
        self.cells[self.idx(p)]
    }

    /// Occupancy of `p` on `layer`.
    #[inline]
    pub fn occupant(&self, p: Point, layer: Layer) -> Occupant {
        self.cells[self.idx(p)].occ[layer.index()]
    }

    /// Net owning the via between `lower` and the layer above it at `p`.
    ///
    /// Returns `None` for `lower == M3` (there is no layer above).
    #[inline]
    pub fn via_between(&self, p: Point, lower: Layer) -> Option<NetId> {
        if lower.index() >= NUM_LAYERS - 1 {
            return None;
        }
        self.cells[self.idx(p)].vias[lower.index()]
    }

    /// Whether any via (of any pair) exists at `p`.
    #[inline]
    pub fn has_via(&self, p: Point) -> bool {
        self.cells[self.idx(p)].vias.iter().any(Option::is_some)
    }

    /// Sets the occupancy of `p` on `layer`, keeping the bit-packed
    /// free plane coherent.
    #[inline]
    pub fn set_occupant(&mut self, p: Point, layer: Layer, occ: Occupant) {
        let i = self.idx(p);
        self.cells[i].occ[layer.index()] = occ;
        let word = layer.index() * self.words + (i >> 6);
        let bit = 1u64 << (i & 63);
        if occ.is_free() {
            self.free[word] |= bit;
        } else {
            self.free[word] &= !bit;
        }
    }

    /// Sets or clears the via between `lower` and the layer above it at
    /// `p`.
    ///
    /// # Panics
    ///
    /// Panics if `lower` is the topmost layer (no pair above it).
    #[inline]
    pub fn set_via_between(&mut self, p: Point, lower: Layer, net: Option<NetId>) {
        assert!(lower.index() < NUM_LAYERS - 1, "no layer above {lower}");
        let i = self.idx(p);
        self.cells[i].vias[lower.index()] = net;
    }

    /// Whether `p` is free on `layer` (in bounds, unoccupied, no foreign
    /// via). Served from the bit-packed plane: one word fetch, no cell
    /// dereference.
    pub fn is_free(&self, p: Point, layer: Layer) -> bool {
        if !self.in_bounds(p) {
            return false;
        }
        let i = p.y as usize * self.width as usize + p.x as usize;
        (self.free[layer.index() * self.words + (i >> 6)] >> (i & 63)) & 1 == 1
    }

    /// A borrowed read-only view of the bit-packed occupancy plane —
    /// the narrow API hot loops probe instead of per-cell
    /// [`Grid::occupant`] calls.
    #[inline]
    pub fn occupancy_view(&self) -> OccupancyView<'_> {
        OccupancyView { grid: self }
    }

    /// Verifies that the bit-packed free plane agrees with `cells`
    /// bit for bit (including the zeroed tail past the last cell).
    /// Intended for debug assertions and the fuzz oracles; costs a
    /// full grid scan.
    pub fn debug_validate_bits(&self) -> bool {
        for layer in 0..NUM_LAYERS {
            for w in 0..self.words {
                let mut expect = 0u64;
                for b in 0..64 {
                    let cell = (w << 6) | b;
                    if cell < self.cells.len() && self.cells[cell].occ[layer].is_free() {
                        expect |= 1u64 << b;
                    }
                }
                if self.free[layer * self.words + w] != expect {
                    return false;
                }
            }
        }
        true
    }

    /// Whether net `net` may occupy `p` on `layer`: the slot is free or
    /// already owned by the same net.
    pub fn admits(&self, p: Point, layer: Layer, net: NetId) -> bool {
        if !self.in_bounds(p) {
            return false;
        }
        match self.occupant(p, layer) {
            Occupant::Free => true,
            Occupant::Net(n) => n == net,
            Occupant::Blocked => false,
        }
    }

    /// Iterates over all in-bounds points, row-major.
    pub fn points(&self) -> impl Iterator<Item = Point> + '_ {
        self.bounds().cells()
    }

    /// Count of free slots over both layers (capacity measure).
    pub fn free_slots(&self) -> usize {
        self.cells.iter().flat_map(|c| c.occ.iter()).filter(|o| o.is_free()).count()
    }
}

/// Read-only window onto the [`Grid`]'s bit-packed free plane.
///
/// One bit per cell per layer, one `u64` word per 64 row-major cells.
/// Hot loops (the `SearchArena` expansion loop, the sequential Lee
/// router, the rip-up router) probe this instead of dereferencing
/// 40-byte [`Cell`]s: a free slot is decided by a single word fetch,
/// and all four Manhattan neighbors by [`OccupancyView::neighbor_free_mask`]
/// without a branch per direction.
///
/// # Examples
///
/// ```
/// use route_model::Grid;
/// use route_geom::{Layer, Point};
///
/// let g = Grid::new(8, 8);
/// let view = g.occupancy_view();
/// assert!(view.is_free(Point::new(3, 3), Layer::M1));
/// // All four neighbors of an interior point of an empty grid are free.
/// assert_eq!(view.neighbor_free_mask(Point::new(3, 3), Layer::M1), 0b1111);
/// // A corner sees only its two in-bounds neighbors.
/// assert_ne!(view.neighbor_free_mask(Point::new(0, 0), Layer::M1), 0b1111);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct OccupancyView<'a> {
    grid: &'a Grid,
}

impl OccupancyView<'_> {
    /// Number of `u64` words per layer plane.
    #[inline]
    pub fn words_per_layer(&self) -> usize {
        self.grid.words
    }

    /// Raw word `word` of `layer`'s plane (bit `b` of word `w` covers
    /// row-major cell `64*w + b`; bits past the last cell are zero).
    #[inline]
    pub fn word(&self, layer: Layer, word: usize) -> u64 {
        self.grid.free[layer.index() * self.grid.words + word]
    }

    /// Whether `p` is free on `layer` (out of bounds counts as not
    /// free). Equivalent to [`Grid::is_free`].
    #[inline]
    pub fn is_free(&self, p: Point, layer: Layer) -> bool {
        self.grid.is_free(p, layer)
    }

    /// One-word-fetch probe of the four Manhattan neighbors of `p` on
    /// `layer`: bit `i` of the result is set iff `p` stepped by
    /// [`route_geom::Dir::ALL`]`[i]` is in bounds and free.
    ///
    /// `p` itself need not be in bounds; every out-of-bounds neighbor
    /// reports not-free. The four edge tests are the only branches and
    /// predict perfectly on interior cells.
    #[inline]
    pub fn neighbor_free_mask(&self, p: Point, layer: Layer) -> u8 {
        let w = self.grid.width as i64;
        let h = self.grid.height as i64;
        let (x, y) = (p.x as i64, p.y as i64);
        if x < 0 || y < 0 || x >= w || y >= h {
            // Off-grid center: fall back to the per-neighbor scalar
            // probe (at most one neighbor can be in bounds).
            let mut mask = 0u8;
            for (i, dir) in Dir::ALL.iter().enumerate() {
                mask |= u8::from(self.grid.is_free(p.step(*dir), layer)) << i;
            }
            return mask;
        }
        let plane =
            &self.grid.free[layer.index() * self.grid.words..(layer.index() + 1) * self.grid.words];
        let cell = (y * w + x) as usize;
        let bit = |c: usize| ((plane[c >> 6] >> (c & 63)) & 1) as u8;
        let wu = w as usize;
        let mut mask = 0u8;
        // Dir::ALL order: North (+w), South (-w), East (+1), West (-1).
        if y + 1 < h {
            mask |= bit(cell + wu);
        }
        if y > 0 {
            mask |= bit(cell - wu) << 1;
        }
        if x + 1 < w {
            mask |= bit(cell + 1) << 2;
        }
        if x > 0 {
            mask |= bit(cell - 1) << 3;
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_grid_is_free() {
        let g = Grid::new(5, 4);
        assert_eq!(g.free_slots(), 5 * 4 * NUM_LAYERS);
        for p in g.points() {
            for l in Layer::ALL {
                assert!(g.is_free(p, l));
            }
            assert!(!g.has_via(p));
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dims_rejected() {
        let _ = Grid::new(0, 5);
    }

    #[test]
    fn set_and_get_occupant() {
        let mut g = Grid::new(3, 3);
        let p = Point::new(1, 2);
        g.set_occupant(p, Layer::M2, Occupant::Net(NetId(7)));
        assert_eq!(g.occupant(p, Layer::M2), Occupant::Net(NetId(7)));
        assert_eq!(g.occupant(p, Layer::M1), Occupant::Free);
        assert!(!g.is_free(p, Layer::M2));
        assert!(g.is_free(p, Layer::M1));
    }

    #[test]
    fn admits_same_net_only() {
        let mut g = Grid::new(3, 3);
        let p = Point::new(0, 0);
        g.set_occupant(p, Layer::M1, Occupant::Net(NetId(1)));
        assert!(g.admits(p, Layer::M1, NetId(1)));
        assert!(!g.admits(p, Layer::M1, NetId(2)));
        g.set_occupant(p, Layer::M1, Occupant::Blocked);
        assert!(!g.admits(p, Layer::M1, NetId(1)));
        assert!(!g.admits(Point::new(-1, 0), Layer::M1, NetId(1)));
    }

    #[test]
    fn via_round_trip() {
        let mut g = Grid::new(2, 2);
        let p = Point::new(1, 1);
        g.set_via_between(p, Layer::M1, Some(NetId(3)));
        assert_eq!(g.via_between(p, Layer::M1), Some(NetId(3)));
        assert_eq!(g.via_between(p, Layer::M2), None);
        assert!(g.has_via(p));
        g.set_via_between(p, Layer::M2, Some(NetId(4)));
        assert_eq!(g.via_between(p, Layer::M2), Some(NetId(4)));
        g.set_via_between(p, Layer::M1, None);
        assert_eq!(g.via_between(p, Layer::M1), None);
        assert!(g.has_via(p), "the M2-M3 via remains");
        // The topmost layer has no pair above it.
        assert_eq!(g.via_between(p, Layer::M3), None);
    }

    #[test]
    #[should_panic(expected = "no layer above")]
    fn set_via_above_top_rejected() {
        let mut g = Grid::new(2, 2);
        g.set_via_between(Point::new(0, 0), Layer::M3, Some(NetId(1)));
    }

    #[test]
    fn bounds_cover_grid() {
        let g = Grid::new(7, 2);
        let b = g.bounds();
        assert_eq!(b.width(), 7);
        assert_eq!(b.height(), 2);
        assert_eq!(g.points().count() as u64, b.area());
    }

    #[test]
    fn occupant_display() {
        assert_eq!(Occupant::Free.to_string(), "free");
        assert_eq!(Occupant::Blocked.to_string(), "blocked");
        assert_eq!(Occupant::Net(NetId(2)).to_string(), "n2");
    }

    #[test]
    fn bit_plane_tracks_mutations() {
        let mut g = Grid::new(9, 5);
        assert!(g.debug_validate_bits());
        let p = Point::new(4, 2);
        g.set_occupant(p, Layer::M2, Occupant::Net(NetId(1)));
        assert!(g.debug_validate_bits());
        assert!(!g.is_free(p, Layer::M2));
        g.set_occupant(p, Layer::M2, Occupant::Free);
        assert!(g.debug_validate_bits());
        assert!(g.is_free(p, Layer::M2));
        // Re-blocking the same slot twice stays coherent.
        g.set_occupant(p, Layer::M2, Occupant::Blocked);
        g.set_occupant(p, Layer::M2, Occupant::Blocked);
        assert!(g.debug_validate_bits());
    }

    #[test]
    fn neighbor_mask_matches_dir_all() {
        use route_geom::Dir;
        let mut g = Grid::new(5, 4);
        g.set_occupant(Point::new(2, 2), Layer::M1, Occupant::Blocked);
        g.set_occupant(Point::new(1, 1), Layer::M1, Occupant::Net(NetId(0)));
        let view = g.occupancy_view();
        for p in g.points() {
            for layer in Layer::ALL {
                let mask = view.neighbor_free_mask(p, layer);
                for (i, dir) in Dir::ALL.iter().enumerate() {
                    let n = p.step(*dir);
                    assert_eq!(
                        mask >> i & 1 == 1,
                        g.is_free(n, layer),
                        "p={p} dir={dir:?} layer={layer}"
                    );
                }
            }
        }
    }

    #[test]
    fn word_layout_is_row_major_per_layer() {
        let g = Grid::new(70, 2);
        let view = g.occupancy_view();
        assert_eq!(view.words_per_layer(), (70 * 2usize).div_ceil(64));
        assert_eq!(view.word(Layer::M1, 0), u64::MAX);
        // 140 cells -> tail word holds 140 - 128 = 12 live bits.
        assert_eq!(view.word(Layer::M3, 2), (1 << 12) - 1);
    }
}
