use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU8, Ordering};

use route_geom::{Layer, Point, NUM_LAYERS};

use crate::{Grid, NetId, Occupant, Pin, Problem};

/// One cell of a routed path: a grid point on a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Step {
    /// Grid cell.
    pub at: Point,
    /// Layer occupied at that cell.
    pub layer: Layer,
}

impl Step {
    /// Creates a step.
    pub const fn new(at: Point, layer: Layer) -> Self {
        Step { at, layer }
    }
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.at, self.layer)
    }
}

/// Error produced when constructing or committing a [`Trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// A trace must contain at least one step.
    Empty,
    /// Two consecutive steps are neither grid-adjacent on one layer nor a
    /// layer change at the same point.
    NotContiguous {
        /// First of the offending pair.
        from: Step,
        /// Second of the offending pair.
        to: Step,
    },
    /// A step lands on a cell the net may not occupy.
    Occupied {
        /// The offending step.
        step: Step,
        /// What currently occupies that slot.
        by: Occupant,
    },
    /// A step is outside the grid.
    OutOfBounds {
        /// The offending step.
        step: Step,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Empty => f.write_str("trace has no steps"),
            TraceError::NotContiguous { from, to } => {
                write!(f, "steps {from} and {to} are not contiguous")
            }
            TraceError::Occupied { step, by } => {
                write!(f, "step {step} lands on a slot occupied by {by}")
            }
            TraceError::OutOfBounds { step } => write!(f, "step {step} is outside the grid"),
        }
    }
}

impl Error for TraceError {}

/// A contiguous routed path: a sequence of steps where consecutive steps
/// are either Manhattan-adjacent on the same layer (a wire segment) or
/// share a point on different layers (a via).
///
/// # Examples
///
/// ```
/// use route_model::{Step, Trace};
/// use route_geom::{Layer, Point};
///
/// let t = Trace::from_steps(vec![
///     Step::new(Point::new(0, 0), Layer::M1),
///     Step::new(Point::new(1, 0), Layer::M1),
///     Step::new(Point::new(1, 0), Layer::M2), // via
///     Step::new(Point::new(1, 1), Layer::M2),
/// ])?;
/// assert_eq!(t.via_points().count(), 1);
/// assert_eq!(t.wire_cells(), 4);
/// # Ok::<(), route_model::TraceError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    steps: Vec<Step>,
}

impl Trace {
    /// Validates contiguity and wraps the steps.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Empty`] for an empty step list and
    /// [`TraceError::NotContiguous`] if any consecutive pair is neither a
    /// unit wire step nor a via transition.
    pub fn from_steps(steps: Vec<Step>) -> Result<Self, TraceError> {
        if steps.is_empty() {
            return Err(TraceError::Empty);
        }
        for w in steps.windows(2) {
            let (a, b) = (w[0], w[1]);
            let wire = a.layer == b.layer && a.at.manhattan(b.at) == 1;
            // Vias join adjacent layers only; an M1->M3 jump is illegal.
            let via = a.at == b.at && a.layer.is_adjacent(b.layer);
            if !wire && !via {
                return Err(TraceError::NotContiguous { from: a, to: b });
            }
        }
        Ok(Trace { steps })
    }

    /// The steps in path order.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// First step of the path.
    pub fn start(&self) -> Step {
        self.steps[0]
    }

    /// Last step of the path.
    pub fn end(&self) -> Step {
        *self.steps.last().expect("trace is never empty")
    }

    /// Vias of the path in order, as `(point, lower layer of the pair)`.
    pub fn via_points(&self) -> impl Iterator<Item = (Point, Layer)> + '_ {
        self.steps.windows(2).filter_map(|w| {
            let lower = w[0].layer.via_pair_with(w[1].layer)?;
            Some((w[0].at, lower))
        })
    }

    /// Number of distinct `(point, layer)` slots the path occupies.
    ///
    /// A via transition revisits the same point on another layer, so this
    /// equals the step count (steps never repeat a slot in a shortest
    /// path, and committed traces are deduplicated by the database).
    pub fn wire_cells(&self) -> usize {
        self.steps.len()
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace {} -> {} ({} steps)", self.start(), self.end(), self.steps.len())
    }
}

/// Handle identifying one committed trace inside a [`RouteDb`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId {
    /// Net the trace belongs to.
    pub net: NetId,
    pub(crate) slot: usize,
}

/// The refcount maps' hasher: a fixed multiply-rotate mix (the Fx hash)
/// over the key's words. The keys are in-bounds grid slots that the
/// routers' own paths cover, not keys taken from input, so std's randomly
/// keyed SipHash guards against nothing here, and it cost a tenth of the
/// router's time in paste and commit. Being unkeyed, the maps also
/// iterate in the same order in every process.
#[derive(Debug, Default, Clone, Copy)]
struct SlotHasher(u64);

impl SlotHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for SlotHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Refcounts keyed by `(point, layer)`.
type SlotCounts = HashMap<(Point, Layer), u32, BuildHasherDefault<SlotHasher>>;

#[derive(Debug, Clone, Default)]
struct NetState {
    pins: Vec<Pin>,
    /// Committed traces; `None` slots are ripped-up traces.
    traces: Vec<Option<Trace>>,
    /// Refcount per occupied (point, layer) slot. Pin slots start at 1.
    occ: SlotCounts,
    /// Refcount per via, keyed by point and the pair's lower layer.
    vias: SlotCounts,
}

/// What a net's last connectivity walk found. The walk floods from the
/// net's first pin; its answer holds until the net's occupancy or vias
/// change, and only [`RouteDb::mark`] and [`RouteDb::unmark`] change
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum Walk {
    /// Not walked since the net's wiring last changed.
    Unknown = 0,
    /// Some pin lies outside the first pin's component.
    Disconnected = 1,
    /// Every pin lies in the first pin's component, and some wiring
    /// lies outside it.
    Connected = 2,
    /// Every pin lies in the first pin's component, and so does every
    /// slot the net occupies: the net holds no dead wire.
    Clean = 3,
}

/// One [`Walk`] per net. Walks are read and stored behind `&self`, so
/// each cell is an atomic with relaxed ordering: the stored value is a
/// pure function of the database, so racing walks store the same value,
/// and [`RouteDb`] stays `Sync` (a `Cell` would not be).
#[derive(Debug)]
struct WalkMemo(Vec<AtomicU8>);

impl Clone for WalkMemo {
    fn clone(&self) -> Self {
        WalkMemo(self.0.iter().map(|w| AtomicU8::new(w.load(Ordering::Relaxed))).collect())
    }
}

impl WalkMemo {
    fn new(nets: usize) -> Self {
        WalkMemo((0..nets).map(|_| AtomicU8::new(Walk::Unknown as u8)).collect())
    }

    fn get(&self, net: NetId) -> Walk {
        match self.0[net.index()].load(Ordering::Relaxed) {
            1 => Walk::Disconnected,
            2 => Walk::Connected,
            3 => Walk::Clean,
            _ => Walk::Unknown,
        }
    }

    fn set(&self, net: NetId, walk: Walk) {
        self.0[net.index()].store(walk as u8, Ordering::Relaxed);
    }

    fn forget(&mut self, net: NetId) {
        *self.0[net.index()].get_mut() = Walk::Unknown as u8;
    }
}

/// One recorded database edit: what [`RouteDb::rewind`] undoes.
#[derive(Debug, Clone)]
enum Edit {
    /// A trace was committed into the last slot of its net.
    Commit(TraceId),
    /// A live trace was ripped out of its slot.
    Rip(TraceId, Trace),
}

/// A live routing database: the occupancy [`Grid`] plus every committed
/// [`Trace`], with support for incremental commit and rip-up.
///
/// The database maintains the invariant that the grid occupancy is exactly
/// the union of all pins and live traces: committing marks cells, ripping
/// up unmarks cells that no other live trace (or pin) of the same net
/// still covers. Pins are marked at construction and can never be ripped.
///
/// A [`checkpoint`](RouteDb::checkpoint) starts an undo log of commits
/// and rip-ups; [`rewind`](RouteDb::rewind) replays it backwards to
/// restore the checkpointed state without ever copying the database.
///
/// Each net's connectivity walk is memoized until an edit touches the
/// net, so [`is_net_connected`](RouteDb::is_net_connected) sweeps over
/// the whole netlist cost a walk per net that changed.
///
/// # Examples
///
/// ```
/// use route_model::{ProblemBuilder, PinSide, RouteDb, Step, Trace};
/// use route_geom::{Layer, Point};
///
/// let mut b = ProblemBuilder::switchbox(4, 3);
/// b.net("a").pin_side(PinSide::Left, 1).pin_side(PinSide::Right, 1);
/// let problem = b.build()?;
/// let mut db = RouteDb::new(&problem);
///
/// let path = Trace::from_steps((0..4).map(|x| {
///     Step::new(Point::new(x, 1), Layer::M1)
/// }).collect())?;
/// let id = db.commit(problem.nets()[0].id, path)?;
/// // 4 occupied slots, of which 2 are the pins themselves.
/// assert_eq!(db.stats().wirelength, 2);
/// db.rip_up(id);
/// assert_eq!(db.stats().wirelength, 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct RouteDb {
    grid: Grid,
    nets: Vec<NetState>,
    /// Edits since the last checkpoint, oldest first; `None` while no
    /// checkpoint is held.
    undo: Option<Vec<Edit>>,
    /// Each net's last connectivity walk, reset by every edit of it.
    walks: WalkMemo,
}

// Routed databases cross threads inside every router's outcome.
const _: fn() = || {
    fn send_sync<T: Send + Sync>() {}
    send_sync::<RouteDb>();
};

impl RouteDb {
    /// Creates a database for `problem` with all pins marked and no wiring.
    pub fn new(problem: &Problem) -> Self {
        let mut grid = problem.base_grid();
        let mut nets = Vec::with_capacity(problem.nets().len());
        for net in problem.nets() {
            let mut state = NetState { pins: net.pins.clone(), ..NetState::default() };
            for pin in &net.pins {
                grid.set_occupant(pin.at, pin.layer, Occupant::Net(net.id));
                *state.occ.entry((pin.at, pin.layer)).or_insert(0) += 1;
            }
            nets.push(state);
        }
        RouteDb { grid, walks: WalkMemo::new(nets.len()), nets, undo: None }
    }

    /// The current occupancy grid.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// Number of nets tracked.
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// The pins of `net` as recorded at construction.
    pub fn pins(&self, net: NetId) -> &[Pin] {
        &self.nets[net.index()].pins
    }

    /// Live traces of `net`, with their ids.
    pub fn traces(&self, net: NetId) -> impl Iterator<Item = (TraceId, &Trace)> {
        self.nets[net.index()]
            .traces
            .iter()
            .enumerate()
            .filter_map(move |(slot, t)| t.as_ref().map(|t| (TraceId { net, slot }, t)))
    }

    /// The trace with the given id, if still live.
    pub fn trace(&self, id: TraceId) -> Option<&Trace> {
        self.nets[id.net.index()].traces.get(id.slot)?.as_ref()
    }

    /// Every `(point, layer)` slot currently occupied by `net` (pins and
    /// wiring), in an order that depends only on the net's edit history.
    pub fn net_slots(&self, net: NetId) -> Vec<Step> {
        self.nets[net.index()].occ.keys().map(|&(at, layer)| Step::new(at, layer)).collect()
    }

    /// Number of `(point, layer)` slots currently occupied by `net`,
    /// pins included.
    pub fn slot_count(&self, net: NetId) -> usize {
        self.nets[net.index()].occ.len()
    }

    /// Whether every pin of `net` belongs to one electrically connected
    /// component of its occupancy (same-layer adjacency plus vias).
    ///
    /// This is the routers' completion test; the independent checker in
    /// `route-verify` deliberately re-implements connectivity rather
    /// than trusting this method. It agrees with
    /// `pin_components(net).len() <= 1` but builds no slot lists, and
    /// it walks the net only when its wiring changed since the last
    /// walk.
    pub fn is_net_connected(&self, net: NetId) -> bool {
        self.walk(net) != Walk::Disconnected
    }

    /// The net's memoized [`Walk`], flooding from its first pin when no
    /// walk since its last edit is on record.
    fn walk(&self, net: NetId) -> Walk {
        let known = self.walks.get(net);
        if known != Walk::Unknown {
            return known;
        }
        let pins = self.pins(net);
        let mut reached = 0;
        if let Some(first) = pins.first() {
            let mut seen = SlotSet::new(&self.grid);
            self.flood(net, &mut seen, Step::new(first.at, first.layer), |_| reached += 1);
            if !pins.iter().all(|pin| seen.contains(Step::new(pin.at, pin.layer))) {
                self.walks.set(net, Walk::Disconnected);
                return Walk::Disconnected;
            }
        }
        let walk = if reached == self.slot_count(net) { Walk::Clean } else { Walk::Connected };
        self.walks.set(net, walk);
        walk
    }

    /// The connected components of `net`'s occupancy that contain at
    /// least one pin, as slot lists. A fully routed net has exactly one.
    ///
    /// Components come in the order of their first pin in
    /// [`pins`](RouteDb::pins), and each lists its slots in breadth-first
    /// order from that pin: same-layer neighbours in
    /// [`Point::neighbors`] order, then vias to the adjacent layers. The
    /// rip-up router derives its search sources and targets from this
    /// order, so it is part of the routed result.
    pub fn pin_components(&self, net: NetId) -> Vec<Vec<Step>> {
        let mut seen = SlotSet::new(&self.grid);
        let mut components = Vec::new();
        for pin in self.pins(net) {
            let start = Step::new(pin.at, pin.layer);
            if !seen.contains(start) {
                let mut members = Vec::new();
                self.flood(net, &mut seen, start, |s| members.push(s));
                components.push(members);
            }
        }
        components
    }

    /// The one connectivity walk: floods `net`'s occupancy breadth-first
    /// from `start` over same-layer adjacency and the net's own vias,
    /// marking each reached slot in `seen` and handing it to `visit`.
    /// Slots already in `seen` are not entered again.
    ///
    /// Slot membership is read straight off the grid (occupant ==
    /// `Net(net)` iff the slot is in the net's refcounts — the commit and
    /// rip paths keep the two coherent), so the walk performs no hashing.
    fn flood(&self, net: NetId, seen: &mut SlotSet, start: Step, mut visit: impl FnMut(Step)) {
        let grid = &self.grid;
        let owns =
            |p: Point, l: Layer| grid.in_bounds(p) && grid.occupant(p, l) == Occupant::Net(net);
        if !seen.insert(start) {
            return;
        }
        let mut queue = std::collections::VecDeque::from([start]);
        while let Some(s) = queue.pop_front() {
            visit(s);
            for n in s.at.neighbors() {
                if owns(n, s.layer) && seen.insert(Step::new(n, s.layer)) {
                    queue.push_back(Step::new(n, s.layer));
                }
            }
            for adj in s.layer.adjacent() {
                let lower = s.layer.via_pair_with(adj).expect("adjacent layers pair");
                if grid.via_between(s.at, lower) == Some(net)
                    && owns(s.at, adj)
                    && seen.insert(Step::new(s.at, adj))
                {
                    queue.push_back(Step::new(s.at, adj));
                }
            }
        }
    }

    /// Number of vias currently owned by `net`.
    pub fn via_count(&self, net: NetId) -> usize {
        self.nets[net.index()].vias.len()
    }

    /// Rips every live trace of `net` lying in a connected component of
    /// the net's occupancy that touches no pin (dead wire, lint `L008`),
    /// returning the total step count of the ripped traces.
    ///
    /// A trace is contiguous, so it lies entirely in one component and
    /// membership is decided by its first step. Hierarchical flows call
    /// this after stitching: sub-problems abandoned mid-route (a failed
    /// tile, a ripped seam) leave fragments that hold no pin and only
    /// waste capacity.
    ///
    /// A net whose walk reached every slot it occupies has no such
    /// component, so it returns 0 without flooding again.
    pub fn prune_dangling(&mut self, net: NetId) -> usize {
        let pins = self.pins(net);
        if pins.is_empty() || self.walk(net) == Walk::Clean {
            return 0;
        }
        let mut seen = SlotSet::new(&self.grid);
        for pin in pins {
            self.flood(net, &mut seen, Step::new(pin.at, pin.layer), |_| {});
        }
        let dead: Vec<TraceId> =
            self.traces(net).filter(|(_, t)| !seen.contains(t.start())).map(|(id, _)| id).collect();
        let mut ripped = 0;
        for id in dead {
            if let Some(t) = self.rip_up(id) {
                ripped += t.steps().len();
            }
        }
        ripped
    }

    /// Validates that `trace` can be committed for `net` against the
    /// current grid, without modifying anything.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::OutOfBounds`] or [`TraceError::Occupied`] on
    /// the first offending step.
    pub fn check(&self, net: NetId, trace: &Trace) -> Result<(), TraceError> {
        for &step in trace.steps() {
            if !self.grid.in_bounds(step.at) {
                return Err(TraceError::OutOfBounds { step });
            }
            match self.grid.occupant(step.at, step.layer) {
                Occupant::Free => {}
                Occupant::Net(n) if n == net => {}
                by => return Err(TraceError::Occupied { step, by }),
            }
        }
        Ok(())
    }

    /// Commits a trace for `net`, marking its cells and vias on the grid.
    ///
    /// # Errors
    ///
    /// Fails (leaving the database untouched) if any step is out of
    /// bounds or lands on a slot held by an obstacle or another net.
    pub fn commit(&mut self, net: NetId, trace: Trace) -> Result<TraceId, TraceError> {
        self.check(net, &trace)?;
        self.mark(net, &trace);
        let traces = &mut self.nets[net.index()].traces;
        traces.push(Some(trace));
        let id = TraceId { net, slot: traces.len() - 1 };
        if let Some(log) = &mut self.undo {
            log.push(Edit::Commit(id));
        }
        Ok(id)
    }

    /// Removes a committed trace, unmarking cells no longer covered by any
    /// live trace or pin of the same net.
    ///
    /// Returns the removed trace, or `None` if `id` was already ripped.
    pub fn rip_up(&mut self, id: TraceId) -> Option<Trace> {
        let trace = self.nets[id.net.index()].traces.get_mut(id.slot)?.take()?;
        self.unmark(id.net, &trace);
        if let Some(log) = &mut self.undo {
            log.push(Edit::Rip(id, trace.clone()));
        }
        Some(trace)
    }

    /// Makes the current state the target of [`rewind`](RouteDb::rewind)
    /// and records every later commit and rip-up until
    /// [`release_checkpoint`](RouteDb::release_checkpoint). A new
    /// checkpoint replaces the previous one: it only clears the log, so
    /// taking one costs nothing beyond dropping the old edits.
    pub fn checkpoint(&mut self) {
        match &mut self.undo {
            Some(log) => log.clear(),
            None => self.undo = Some(Vec::new()),
        }
    }

    /// Restores the state of the last [`checkpoint`](RouteDb::checkpoint)
    /// by undoing the recorded edits newest first; the checkpoint stays
    /// the target. Does nothing when no checkpoint is held.
    ///
    /// The restored database equals a clone taken at the checkpoint in
    /// everything it exposes: grid, refcounts, vias, and every net's
    /// trace list with its ids. Undoing a commit rips the trace and
    /// drops its slot, which is the net's last slot at that point
    /// because the newer commits are already undone; undoing a rip-up
    /// re-marks the trace and puts it back into its own slot.
    ///
    /// # Examples
    ///
    /// ```
    /// use route_model::{ProblemBuilder, PinSide, RouteDb, Step, Trace};
    /// use route_geom::{Layer, Point};
    ///
    /// let mut b = ProblemBuilder::switchbox(4, 3);
    /// b.net("a").pin_side(PinSide::Left, 1).pin_side(PinSide::Right, 1);
    /// let problem = b.build()?;
    /// let net = problem.nets()[0].id;
    /// let mut db = RouteDb::new(&problem);
    /// let row = |y| {
    ///     Trace::from_steps((0..4).map(|x| Step::new(Point::new(x, y), Layer::M1)).collect())
    /// };
    /// let kept = db.commit(net, row(1)?)?;
    /// let before = db.checksum();
    ///
    /// db.checkpoint();
    /// db.rip_up(kept);
    /// db.commit(net, row(0)?)?;
    /// db.rewind();
    /// assert_eq!(db.checksum(), before);
    /// assert!(db.trace(kept).is_some());
    /// db.release_checkpoint();
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn rewind(&mut self) {
        let Some(mut log) = self.undo.take() else { return };
        while let Some(edit) = log.pop() {
            match edit {
                Edit::Commit(id) => {
                    let traces = &mut self.nets[id.net.index()].traces;
                    debug_assert_eq!(id.slot + 1, traces.len(), "commit undone out of order");
                    let trace = traces.pop().flatten().expect("undone commit is live");
                    self.unmark(id.net, &trace);
                }
                Edit::Rip(id, trace) => {
                    self.mark(id.net, &trace);
                    self.nets[id.net.index()].traces[id.slot] = Some(trace);
                }
            }
        }
        self.undo = Some(log);
    }

    /// Drops the checkpoint and its log and stops recording edits.
    pub fn release_checkpoint(&mut self) {
        self.undo = None;
    }

    /// Number of edits a [`rewind`](RouteDb::rewind) would undo, or
    /// `None` while no checkpoint is held.
    pub fn edits_since_checkpoint(&self) -> Option<usize> {
        self.undo.as_ref().map(Vec::len)
    }

    /// Marks the slots and vias of `trace` for `net`, bumping refcounts.
    /// With [`unmark`](RouteDb::unmark), the only code that changes a
    /// net's occupancy, so both forget the net's memoized walk.
    fn mark(&mut self, net: NetId, trace: &Trace) {
        self.walks.forget(net);
        let state = &mut self.nets[net.index()];
        for &step in trace.steps() {
            let count = state.occ.entry((step.at, step.layer)).or_insert(0);
            if *count == 0 {
                self.grid.set_occupant(step.at, step.layer, Occupant::Net(net));
            }
            *count += 1;
        }
        for (p, lower) in trace.via_points() {
            let count = state.vias.entry((p, lower)).or_insert(0);
            if *count == 0 {
                self.grid.set_via_between(p, lower, Some(net));
            }
            *count += 1;
        }
    }

    /// Reverses [`mark`](RouteDb::mark): drops refcounts and frees the
    /// slots and vias no other trace or pin of `net` still covers.
    fn unmark(&mut self, net: NetId, trace: &Trace) {
        self.walks.forget(net);
        let state = &mut self.nets[net.index()];
        for &step in trace.steps() {
            let key = (step.at, step.layer);
            let count = state.occ.get_mut(&key).expect("committed slot has refcount");
            *count -= 1;
            if *count == 0 {
                state.occ.remove(&key);
                self.grid.set_occupant(step.at, step.layer, Occupant::Free);
            }
        }
        for (p, lower) in trace.via_points() {
            let count = state.vias.get_mut(&(p, lower)).expect("committed via has refcount");
            *count -= 1;
            if *count == 0 {
                state.vias.remove(&(p, lower));
                self.grid.set_via_between(p, lower, None);
            }
        }
    }

    /// Removes every live trace of `net`, returning them in commit order.
    pub fn rip_up_net(&mut self, net: NetId) -> Vec<Trace> {
        let ids: Vec<TraceId> = self.traces(net).map(|(id, _)| id).collect();
        ids.into_iter().filter_map(|id| self.rip_up(id)).collect()
    }

    /// The traces of `net` that cover a given slot.
    pub fn traces_covering(&self, net: NetId, at: Point, layer: Layer) -> Vec<TraceId> {
        self.traces(net)
            .filter(|(_, t)| t.steps().iter().any(|s| s.at == at && s.layer == layer))
            .map(|(id, _)| id)
            .collect()
    }

    /// Aggregate wiring statistics over all nets.
    pub fn stats(&self) -> crate::RouteStats {
        let mut wirelength = 0u64;
        let mut vias = 0u64;
        let mut traces = 0u64;
        for state in &self.nets {
            let pin_slots: u64 = state.pins.len() as u64;
            let occ_slots = state.occ.len() as u64;
            // Pins that remain wire-free are not wirelength; occupied
            // slots beyond the pins are. Pins covered by wiring count once.
            wirelength += occ_slots.saturating_sub(pin_slots);
            vias += state.vias.len() as u64;
            traces += state.traces.iter().flatten().count() as u64;
        }
        crate::RouteStats { wirelength, vias, traces }
    }

    /// An order-independent fingerprint of the physical routing state:
    /// grid dimensions, per-slot occupancy and via ownership, hashed
    /// with FNV-1a in row-major order.
    ///
    /// Two databases with the same checksum hold the same metal — how
    /// the wiring is split into traces does not enter the hash. This is
    /// what the batch engine compares to prove that routing with 1
    /// thread and with N threads produced bit-identical results.
    pub fn checksum(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut eat = |v: u64| {
            for byte in v.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(FNV_PRIME);
            }
        };
        eat(u64::from(self.grid.width()));
        eat(u64::from(self.grid.height()));
        for p in self.grid.points() {
            for layer in Layer::ALL {
                let code = match self.grid.occupant(p, layer) {
                    Occupant::Free => 0,
                    Occupant::Blocked => 1,
                    Occupant::Net(n) => 2 + n.index() as u64,
                };
                eat(code);
            }
            for lower in [Layer::M1, Layer::M2] {
                let code = match self.grid.via_between(p, lower) {
                    None => 0,
                    Some(n) => 1 + n.index() as u64,
                };
                eat(code);
            }
        }
        h
    }
}

/// One bit per `(point, layer)` slot of a grid: the visited set of
/// [`RouteDb::flood`], indexed row-major with [`NUM_LAYERS`] slots per
/// cell.
struct SlotSet {
    width: usize,
    bits: Vec<u64>,
}

impl SlotSet {
    fn new(grid: &Grid) -> Self {
        let width = grid.width() as usize;
        let slots = width * grid.height() as usize * NUM_LAYERS;
        SlotSet { width, bits: vec![0; slots.div_ceil(64)] }
    }

    fn index(&self, s: Step) -> usize {
        (s.at.y as usize * self.width + s.at.x as usize) * NUM_LAYERS + s.layer.index()
    }

    fn contains(&self, s: Step) -> bool {
        let i = self.index(s);
        self.bits[i / 64] >> (i % 64) & 1 == 1
    }

    /// Marks `s`, returning whether it was unmarked.
    fn insert(&mut self, s: Step) -> bool {
        let i = self.index(s);
        let (word, bit) = (&mut self.bits[i / 64], 1 << (i % 64));
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PinSide, ProblemBuilder};

    fn one_net_problem() -> Problem {
        let mut b = ProblemBuilder::switchbox(5, 4);
        b.net("a").pin_side(PinSide::Left, 1).pin_side(PinSide::Right, 1);
        b.build().unwrap()
    }

    fn straight_m1(y: i32, x0: i32, x1: i32) -> Trace {
        Trace::from_steps((x0..=x1).map(|x| Step::new(Point::new(x, y), Layer::M1)).collect())
            .unwrap()
    }

    #[test]
    fn trace_rejects_gaps() {
        let err = Trace::from_steps(vec![
            Step::new(Point::new(0, 0), Layer::M1),
            Step::new(Point::new(2, 0), Layer::M1),
        ]);
        assert!(matches!(err, Err(TraceError::NotContiguous { .. })));
        assert_eq!(Trace::from_steps(vec![]), Err(TraceError::Empty));
    }

    #[test]
    fn trace_accepts_vias() {
        let t = Trace::from_steps(vec![
            Step::new(Point::new(0, 0), Layer::M1),
            Step::new(Point::new(0, 0), Layer::M2),
            Step::new(Point::new(0, 1), Layer::M2),
        ])
        .unwrap();
        assert_eq!(t.via_points().collect::<Vec<_>>(), vec![(Point::new(0, 0), Layer::M1)]);
    }

    #[test]
    fn commit_marks_grid() {
        let p = one_net_problem();
        let net = p.nets()[0].id;
        let mut db = RouteDb::new(&p);
        db.commit(net, straight_m1(1, 0, 4)).unwrap();
        for x in 0..5 {
            assert_eq!(db.grid().occupant(Point::new(x, 1), Layer::M1), Occupant::Net(net));
        }
    }

    #[test]
    fn commit_rejects_foreign_occupancy() {
        let mut b = ProblemBuilder::switchbox(5, 4);
        b.net("a").pin_side(PinSide::Left, 1).pin_side(PinSide::Right, 1);
        b.net("b").pin_side(PinSide::Left, 2).pin_side(PinSide::Right, 2);
        let p = b.build().unwrap();
        let (a, bnet) = (p.nets()[0].id, p.nets()[1].id);
        let mut db = RouteDb::new(&p);
        db.commit(a, straight_m1(1, 0, 4)).unwrap();
        // Net b tries to cross row 1 on M1: blocked at (2,1).
        let err = db.commit(bnet, straight_m1(1, 2, 3));
        assert!(matches!(err, Err(TraceError::Occupied { .. })));
        // And the database was not modified by the failed commit.
        assert_eq!(db.traces(bnet).count(), 0);
    }

    #[test]
    fn rip_up_restores_grid() {
        let p = one_net_problem();
        let net = p.nets()[0].id;
        let mut db = RouteDb::new(&p);
        let id = db.commit(net, straight_m1(1, 0, 4)).unwrap();
        let removed = db.rip_up(id).unwrap();
        assert_eq!(removed.steps().len(), 5);
        // Interior cells freed, pin cells still owned.
        assert_eq!(db.grid().occupant(Point::new(2, 1), Layer::M1), Occupant::Free);
        assert_eq!(db.grid().occupant(Point::new(0, 1), Layer::M1), Occupant::Net(net));
        assert_eq!(db.grid().occupant(Point::new(4, 1), Layer::M1), Occupant::Net(net));
        // Double rip-up is a no-op.
        assert!(db.rip_up(id).is_none());
    }

    #[test]
    fn overlapping_traces_refcount() {
        let p = one_net_problem();
        let net = p.nets()[0].id;
        let mut db = RouteDb::new(&p);
        let t1 = db.commit(net, straight_m1(1, 0, 4)).unwrap();
        // A second trace sharing cell (2,1): a stub going north from the spine.
        let stub = Trace::from_steps(vec![
            Step::new(Point::new(2, 1), Layer::M1),
            Step::new(Point::new(2, 1), Layer::M2),
            Step::new(Point::new(2, 2), Layer::M2),
        ])
        .unwrap();
        let _t2 = db.commit(net, stub).unwrap();
        db.rip_up(t1);
        // (2,1) on M1 still held by the stub.
        assert_eq!(db.grid().occupant(Point::new(2, 1), Layer::M1), Occupant::Net(net));
        // But (3,1) was only in t1.
        assert_eq!(db.grid().occupant(Point::new(3, 1), Layer::M1), Occupant::Free);
    }

    #[test]
    fn vias_marked_and_cleared() {
        let p = one_net_problem();
        let net = p.nets()[0].id;
        let mut db = RouteDb::new(&p);
        let t = Trace::from_steps(vec![
            Step::new(Point::new(0, 1), Layer::M1),
            Step::new(Point::new(0, 1), Layer::M2),
            Step::new(Point::new(0, 2), Layer::M2),
        ])
        .unwrap();
        let id = db.commit(net, t).unwrap();
        assert_eq!(db.grid().via_between(Point::new(0, 1), Layer::M1), Some(net));
        db.rip_up(id);
        assert_eq!(db.grid().via_between(Point::new(0, 1), Layer::M1), None);
    }

    #[test]
    fn stats_track_wiring() {
        let p = one_net_problem();
        let net = p.nets()[0].id;
        let mut db = RouteDb::new(&p);
        assert_eq!(db.stats().wirelength, 0);
        db.commit(net, straight_m1(1, 0, 4)).unwrap();
        let s = db.stats();
        // 5 occupied slots, 2 of them pins.
        assert_eq!(s.wirelength, 3);
        assert_eq!(s.vias, 0);
        assert_eq!(s.traces, 1);
    }

    #[test]
    fn rip_up_net_clears_everything() {
        let p = one_net_problem();
        let net = p.nets()[0].id;
        let mut db = RouteDb::new(&p);
        db.commit(net, straight_m1(1, 0, 4)).unwrap();
        db.commit(net, straight_m1(2, 0, 0)).unwrap();
        let ripped = db.rip_up_net(net);
        assert_eq!(ripped.len(), 2);
        assert_eq!(db.stats().wirelength, 0);
        assert_eq!(db.traces(net).count(), 0);
    }

    #[test]
    fn traces_covering_finds_owner() {
        let p = one_net_problem();
        let net = p.nets()[0].id;
        let mut db = RouteDb::new(&p);
        let id = db.commit(net, straight_m1(1, 0, 4)).unwrap();
        assert_eq!(db.traces_covering(net, Point::new(3, 1), Layer::M1), vec![id]);
        assert!(db.traces_covering(net, Point::new(3, 2), Layer::M1).is_empty());
    }

    #[test]
    fn net_slots_include_pins() {
        let p = one_net_problem();
        let net = p.nets()[0].id;
        let db = RouteDb::new(&p);
        let slots = db.net_slots(net);
        assert_eq!(slots.len(), 2);
    }

    #[test]
    fn check_out_of_bounds() {
        let p = one_net_problem();
        let net = p.nets()[0].id;
        let db = RouteDb::new(&p);
        let t = Trace::from_steps(vec![Step::new(Point::new(-1, 0), Layer::M1)]).unwrap();
        assert!(matches!(db.check(net, &t), Err(TraceError::OutOfBounds { .. })));
    }

    #[test]
    fn rewind_restores_ripped_and_committed_traces() {
        let p = one_net_problem();
        let net = p.nets()[0].id;
        let mut db = RouteDb::new(&p);
        let spine = db.commit(net, straight_m1(1, 0, 4)).unwrap();
        let spur = Trace::from_steps(vec![
            Step::new(Point::new(2, 1), Layer::M1),
            Step::new(Point::new(2, 1), Layer::M2),
            Step::new(Point::new(2, 2), Layer::M2),
        ])
        .unwrap();
        let spur = db.commit(net, spur).unwrap();
        db.rip_up(spur);
        let saved = db.clone();
        assert_eq!(db.edits_since_checkpoint(), None, "nothing records before a checkpoint");

        db.checkpoint();
        db.rip_up(spine);
        let late = db.commit(net, straight_m1(3, 0, 4)).unwrap();
        db.rip_up(late);
        db.commit(net, straight_m1(2, 1, 3)).unwrap();
        assert_eq!(db.edits_since_checkpoint(), Some(4));
        db.rewind();

        assert_eq!(db.edits_since_checkpoint(), Some(0), "the checkpoint stays the target");
        assert_eq!(db.grid(), saved.grid());
        assert!(db.grid().debug_validate_bits());
        assert_eq!(db.checksum(), saved.checksum());
        assert_eq!(db.stats(), saved.stats());
        let ids = |d: &RouteDb| d.traces(net).map(|(id, t)| (id, t.clone())).collect::<Vec<_>>();
        assert_eq!(ids(&db), ids(&saved));
        assert_eq!(db.slot_count(net), saved.slot_count(net));
        assert_eq!(db.via_count(net), saved.via_count(net));
        // Slot numbering continues where the checkpointed state left it.
        let mut fresh = saved.clone();
        assert_eq!(
            db.commit(net, straight_m1(3, 0, 1)).unwrap(),
            fresh.commit(net, straight_m1(3, 0, 1)).unwrap()
        );
        db.release_checkpoint();
        assert_eq!(db.edits_since_checkpoint(), None);
    }

    #[test]
    fn rewind_undoes_shared_refcounts_and_vias() {
        let p = one_net_problem();
        let net = p.nets()[0].id;
        let mut db = RouteDb::new(&p);
        db.checkpoint();
        let saved = db.clone();
        // Two traces share (2,1)@M1 and a via; ripping one must keep the
        // other's marks, and the rewind must free both.
        let via = || {
            Trace::from_steps(vec![
                Step::new(Point::new(2, 1), Layer::M1),
                Step::new(Point::new(2, 1), Layer::M2),
            ])
            .unwrap()
        };
        let a = db.commit(net, via()).unwrap();
        db.commit(net, via()).unwrap();
        db.commit(net, straight_m1(1, 0, 4)).unwrap();
        db.rip_up(a);
        assert_eq!(db.grid().via_between(Point::new(2, 1), Layer::M1), Some(net));
        db.rewind();
        assert_eq!(db.grid(), saved.grid());
        assert_eq!(db.grid().via_between(Point::new(2, 1), Layer::M1), None);
        assert_eq!(db.stats(), saved.stats());
        assert_eq!(db.traces(net).count(), 0);
    }

    #[test]
    fn prune_dangling_rips_only_pinless_components() {
        let p = one_net_problem();
        let net = p.nets()[0].id;
        let mut db = RouteDb::new(&p);
        // The pin-connecting trace plus a floating fragment on row 3.
        db.commit(net, straight_m1(1, 0, 4)).unwrap();
        db.commit(net, straight_m1(3, 1, 3)).unwrap();
        assert!(db.is_net_connected(net));
        assert_eq!(db.prune_dangling(net), 3);
        assert!(db.is_net_connected(net));
        assert_eq!(db.traces(net).count(), 1, "the live trace survives");
        assert_eq!(db.grid().occupant(Point::new(2, 3), Layer::M1), Occupant::Free);
        // A second pass finds nothing left to rip.
        assert_eq!(db.prune_dangling(net), 0);
    }

    #[test]
    fn prune_dangling_follows_vias() {
        let p = one_net_problem();
        let net = p.nets()[0].id;
        let mut db = RouteDb::new(&p);
        db.commit(net, straight_m1(1, 0, 4)).unwrap();
        // A live spur that changes layers: reachable through the via.
        let spur = Trace::from_steps(vec![
            Step::new(Point::new(2, 1), Layer::M1),
            Step::new(Point::new(2, 1), Layer::M2),
            Step::new(Point::new(2, 2), Layer::M2),
        ])
        .unwrap();
        db.commit(net, spur).unwrap();
        assert_eq!(db.prune_dangling(net), 0, "via-linked wiring is live");
        assert_eq!(db.traces(net).count(), 2);
    }

    #[test]
    fn components_merge_as_wiring_lands() {
        let p = one_net_problem();
        let net = p.nets()[0].id;
        let mut db = RouteDb::new(&p);
        assert_eq!(db.pin_components(net).len(), 2);
        assert!(!db.is_net_connected(net));
        db.commit(net, straight_m1(1, 0, 4)).unwrap();
        assert_eq!(db.pin_components(net).len(), 1);
        assert!(db.is_net_connected(net));
    }

    #[test]
    fn components_list_slots_breadth_first_from_each_pin() {
        let p = one_net_problem();
        let net = p.nets()[0].id;
        let mut db = RouteDb::new(&p);
        // Left pin (0,1) wired to (2,1); the right pin (4,1) stands alone.
        db.commit(net, straight_m1(1, 0, 2)).unwrap();
        let row = |xs: &[i32]| -> Vec<Step> {
            xs.iter().map(|&x| Step::new(Point::new(x, 1), Layer::M1)).collect()
        };
        assert_eq!(db.pin_components(net), vec![row(&[0, 1, 2]), row(&[4])]);
    }

    #[test]
    fn via_required_to_bridge_layers() {
        let mut b = ProblemBuilder::switchbox(3, 3);
        b.net("a").pin_at(Point::new(0, 0), Layer::M1).pin_at(Point::new(0, 0), Layer::M2);
        let p = b.build().unwrap();
        let net = p.nets()[0].id;
        let mut db = RouteDb::new(&p);
        // Stacked pins, no via: two components.
        assert_eq!(db.pin_components(net).len(), 2);
        assert!(!db.is_net_connected(net));
        let via = Trace::from_steps(vec![
            Step::new(Point::new(0, 0), Layer::M1),
            Step::new(Point::new(0, 0), Layer::M2),
        ])
        .unwrap();
        db.commit(net, via).unwrap();
        assert_eq!(db.pin_components(net).len(), 1);
        assert!(db.is_net_connected(net));
    }
}
