//! The tile (global-cell) grid and its edges: the one tile model that
//! the hierarchical router plans over and the chip-scale analyzer
//! certifies over, so the two never disagree about where a tile ends.

use route_geom::{Layer, Point, Rect};

use crate::{Grid, Occupant, Problem};

/// Identifier of a tile: its column and row in the tile grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TileId {
    /// Tile column (0 = leftmost).
    pub col: u32,
    /// Tile row (0 = bottom).
    pub row: u32,
}

/// A direction-free edge between two adjacent tiles, normalised so `a`
/// is the lower/left tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TileEdge {
    /// The lower/left tile.
    pub a: TileId,
    /// The upper/right tile.
    pub b: TileId,
}

impl TileEdge {
    /// The edge between two adjacent tiles, in either order.
    pub fn new(a: TileId, b: TileId) -> Self {
        if (a.col, a.row) <= (b.col, b.row) {
            TileEdge { a, b }
        } else {
            TileEdge { a: b, b: a }
        }
    }

    /// Whether the edge joins horizontally adjacent tiles.
    pub fn is_horizontal(&self) -> bool {
        self.a.row == self.b.row
    }
}

/// The tile grid over a problem's floorplan: div-ceil tiling, ragged
/// tiles at the top/right edges.
///
/// # Examples
///
/// ```
/// use route_model::{PinSide, ProblemBuilder, TileGrid};
///
/// let mut b = ProblemBuilder::switchbox(40, 24);
/// b.net("a").pin_side(PinSide::Left, 3).pin_side(PinSide::Right, 5);
/// let tiles = TileGrid::new(&b.build().unwrap(), 16);
/// assert_eq!((tiles.cols(), tiles.rows()), (3, 2));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileGrid {
    tile: u32,
    cols: u32,
    rows: u32,
    width: u32,
    height: u32,
}

impl TileGrid {
    /// Tiles `problem`'s grid with `tile`-sized squares (ragged at the
    /// top/right edges).
    ///
    /// # Panics
    ///
    /// Panics if `tile` is zero.
    pub fn new(problem: &Problem, tile: u32) -> Self {
        assert!(tile > 0, "tile size must be non-zero");
        TileGrid {
            tile,
            cols: problem.width().div_ceil(tile),
            rows: problem.height().div_ceil(tile),
            width: problem.width(),
            height: problem.height(),
        }
    }

    /// Tile side length the grid was built with.
    pub const fn tile(&self) -> u32 {
        self.tile
    }

    /// Number of tile columns.
    pub const fn cols(&self) -> u32 {
        self.cols
    }

    /// Number of tile rows.
    pub const fn rows(&self) -> u32 {
        self.rows
    }

    /// The tile containing grid point `p`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) on out-of-grid points.
    pub fn tile_of(&self, p: Point) -> TileId {
        debug_assert!(p.x >= 0 && p.y >= 0, "point {p} outside the grid");
        TileId { col: p.x as u32 / self.tile, row: p.y as u32 / self.tile }
    }

    /// The cell rectangle covered by `t`.
    pub fn rect(&self, t: TileId) -> Rect {
        let x0 = (t.col * self.tile) as i32;
        let y0 = (t.row * self.tile) as i32;
        let w = self.tile.min(self.width - t.col * self.tile);
        let h = self.tile.min(self.height - t.row * self.tile);
        Rect::with_size(Point::new(x0, y0), w, h)
    }

    /// All tiles, row-major.
    pub fn tiles(&self) -> impl Iterator<Item = TileId> + '_ {
        (0..self.rows).flat_map(move |row| (0..self.cols).map(move |col| TileId { col, row }))
    }

    /// The neighbours of `t` in the tile grid: left, right, below, above.
    pub fn neighbors(&self, t: TileId) -> Vec<TileId> {
        let mut out = Vec::with_capacity(4);
        if t.col > 0 {
            out.push(TileId { col: t.col - 1, row: t.row });
        }
        if t.col + 1 < self.cols {
            out.push(TileId { col: t.col + 1, row: t.row });
        }
        if t.row > 0 {
            out.push(TileId { col: t.col, row: t.row - 1 });
        }
        if t.row + 1 < self.rows {
            out.push(TileId { col: t.col, row: t.row + 1 });
        }
        out
    }

    /// The facing cell pairs across an edge: for each offset along the
    /// boundary, the last cell of tile `a` and the grid-adjacent first
    /// cell of tile `b`, on every layer alike.
    pub fn facing(&self, edge: TileEdge) -> impl Iterator<Item = (Point, Point)> {
        let (ra, rb) = (self.rect(edge.a), self.rect(edge.b));
        let horizontal = edge.is_horizontal();
        let span = if horizontal { ra.min().y..=ra.max().y } else { ra.min().x..=ra.max().x };
        span.map(move |i| {
            if horizontal {
                (Point::new(ra.max().x, i), Point::new(rb.min().x, i))
            } else {
                (Point::new(i, ra.max().y), Point::new(i, rb.min().y))
            }
        })
    }

    /// The crossing cell pairs of an edge: its [`facing`](Self::facing)
    /// pairs that are unblocked on both sides in `base`, on the crossing
    /// layer (M1 for horizontal edges, M2 for vertical), which is
    /// returned alongside.
    pub fn edge_cells(&self, edge: TileEdge, base: &Grid) -> (Layer, Vec<(Point, Point)>) {
        let layer = if edge.is_horizontal() { Layer::M1 } else { Layer::M2 };
        let open = |p: Point| base.occupant(p, layer) != Occupant::Blocked;
        (layer, self.facing(edge).filter(|&(pa, pb)| open(pa) && open(pb)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PinSide, ProblemBuilder};

    fn toy(width: u32, height: u32) -> Problem {
        let mut b = ProblemBuilder::switchbox(width, height);
        b.net("a").pin_side(PinSide::Left, 0).pin_side(PinSide::Right, 0);
        b.build().expect("valid")
    }

    #[test]
    fn tiling_covers_the_grid_exactly() {
        let p = toy(20, 13);
        let tiles = TileGrid::new(&p, 8);
        assert_eq!((tiles.cols(), tiles.rows()), (3, 2));
        let mut covered = 0u64;
        for t in tiles.tiles() {
            covered += tiles.rect(t).area();
        }
        assert_eq!(covered, 20 * 13);
        // Every point maps to the tile whose rect contains it.
        for p in p.base_grid().bounds().cells() {
            let t = tiles.tile_of(p);
            assert!(tiles.rect(t).contains(p), "{p} not in tile {t:?}");
        }
    }

    #[test]
    fn neighbors_are_adjacent() {
        let p = toy(24, 24);
        let tiles = TileGrid::new(&p, 8);
        let center = TileId { col: 1, row: 1 };
        assert_eq!(tiles.neighbors(center).len(), 4);
        let corner = TileId { col: 0, row: 0 };
        assert_eq!(tiles.neighbors(corner).len(), 2);
    }

    #[test]
    fn facing_pairs_span_the_ragged_boundary() {
        // 20 wide, tile 8: the (1,0)-(2,0) edge faces across x = 15/16
        // for the full height of the bottom tile row.
        let p = toy(20, 13);
        let tiles = TileGrid::new(&p, 8);
        let edge = TileEdge::new(TileId { col: 1, row: 0 }, TileId { col: 2, row: 0 });
        let pairs: Vec<_> = tiles.facing(edge).collect();
        assert_eq!(pairs.len(), 8);
        assert!(pairs.iter().all(|&(pa, pb)| pa.x == 15 && pb.x == 16 && pa.y == pb.y));
        // The vertical edge into the ragged top row faces across y = 7/8
        // over the 4-wide last column.
        let edge = TileEdge::new(TileId { col: 2, row: 0 }, TileId { col: 2, row: 1 });
        let pairs: Vec<_> = tiles.facing(edge).collect();
        assert_eq!(pairs.len(), 4);
        assert!(pairs.iter().all(|&(pa, pb)| pa.y == 7 && pb.y == 8 && pa.x == pb.x));
    }

    #[test]
    fn edge_cells_skip_blocked_columns() {
        let mut b = ProblemBuilder::switchbox(16, 8);
        // Block part of the boundary between the two tiles (x = 7, 8).
        for y in 0..4 {
            b.obstacle(Point::new(7, y));
        }
        b.net("a").pin_side(PinSide::Left, 0).pin_side(PinSide::Right, 0);
        let p = b.build().expect("valid");
        let tiles = TileGrid::new(&p, 8);
        let edge = TileEdge::new(TileId { col: 0, row: 0 }, TileId { col: 1, row: 0 });
        let (layer, pairs) = tiles.edge_cells(edge, &p.base_grid());
        assert_eq!(layer, Layer::M1);
        assert_eq!(pairs.len(), 4, "rows 0-3 are blocked on the a-side");
        for (pa, pb) in pairs {
            assert_eq!(pa.x, 7);
            assert_eq!(pb.x, 8);
            assert!(pa.y >= 4);
        }
    }

    #[test]
    fn vertical_edges_cross_on_m2() {
        let p = toy(8, 16);
        let tiles = TileGrid::new(&p, 8);
        let edge = TileEdge::new(TileId { col: 0, row: 0 }, TileId { col: 0, row: 1 });
        let (layer, pairs) = tiles.edge_cells(edge, &p.base_grid());
        assert_eq!(layer, Layer::M2);
        assert_eq!(pairs.len(), 8);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_tile_rejected() {
        let p = toy(8, 8);
        let _ = TileGrid::new(&p, 0);
    }
}
