//! MPI-style communicators with pluggable collective backends.
//!
//! Each logical rank runs on its own OS thread with private data; ranks
//! interact *only* through the [`Collectives`] operations, so algorithms
//! written against [`Communicator`] have the same structure as their MPI
//! counterparts. Two backends implement the surface:
//!
//! * [`Rendezvous`] — a centralized shared-memory slot: every collective is
//!   an all-deposit/all-take barrier on one mutex. Semantically the
//!   simplest possible implementation; kept as the oracle the p2p backend
//!   is tested against.
//! * [`P2p`] — per-rank-pair bounded channels running real
//!   message-passing schedules (dissemination barrier, ring all-gather,
//!   distance-doubling all-reduce, ring reduce-scatter, binomial
//!   broadcast/gather/scatter, pairwise all-to-all), so message counts and
//!   wall time are *measured* on the wire, not just modeled.
//!
//! Every collective charges the rank's [`CostLedger`] with the §II-E model
//! costs of the paper — identically on both backends, so modeled cost
//! reports stay comparable across backends:
//!
//! * All-Gather:      `log P · α + n·δ(P) · β`
//! * Reduce-Scatter:  `log P · α + n·δ(P) · β` (plus `n` flops for the sum)
//! * All-Reduce:      `2 log P · α + 2n·δ(P) · β`
//! * Broadcast:       `log P · α + n·δ(P) · β`
//! * All-to-All:      `log P · α + n·δ(P) · β`
//! * Barrier:         `log P · α`
//!
//! The p2p backend additionally records the *actual* per-rank wire traffic
//! in [`TransportCounters`], available via
//! [`Communicator::transport_stats`].
//!
//! Reductions on both backends sum contributions in ascending rank order,
//! so all collectives produce bitwise-identical results across backends.

use crate::abort::Abort;
use crate::cost::CostLedger;
use crate::p2p::{P2p, TransportCounters};
use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::collections::HashMap;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Backend selection
// ---------------------------------------------------------------------------

/// Which collective implementation a world uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// Centralized all-deposit/all-take rendezvous slot (the oracle).
    #[default]
    Rendezvous,
    /// Point-to-point channel transport with real collective schedules.
    P2p,
}

impl Backend {
    /// Accepted names, in the order reported by parse errors.
    pub const NAMES: [&'static str; 2] = ["rendezvous", "p2p"];
    /// All backends, for parametrizing tests and benches.
    pub const ALL: [Backend; 2] = [Backend::Rendezvous, Backend::P2p];

    /// Canonical lowercase name.
    pub fn label(self) -> &'static str {
        match self {
            Backend::Rendezvous => "rendezvous",
            Backend::P2p => "p2p",
        }
    }

    /// Read `PP_COMM_BACKEND` from the environment; unset or empty means
    /// [`Backend::Rendezvous`], unknown values warn and fall back.
    pub fn from_env() -> Self {
        match std::env::var("PP_COMM_BACKEND") {
            Ok(s) if s.is_empty() => Backend::default(),
            Ok(s) => s.parse().unwrap_or_else(|e| {
                eprintln!("PP_COMM_BACKEND: {e}; using rendezvous");
                Backend::default()
            }),
            Err(_) => Backend::default(),
        }
    }
}

impl std::str::FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "rendezvous" => Ok(Backend::Rendezvous),
            "p2p" => Ok(Backend::P2p),
            other => Err(format!(
                "unknown backend '{}' (expected one of {})",
                other,
                Backend::NAMES.join("|")
            )),
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

// ---------------------------------------------------------------------------
// The collective surface
// ---------------------------------------------------------------------------

/// The collective-communication surface shared by all backends.
///
/// Implementations must be deterministic: for the same inputs on every
/// rank, every collective returns bitwise-identical results regardless of
/// backend or thread scheduling. In particular, reductions sum
/// contributions in ascending rank order.
pub trait Collectives {
    /// This rank's index within the group.
    fn rank(&self) -> usize;

    /// Number of ranks in the group.
    fn size(&self) -> usize;

    /// The cost ledger charged by this communicator's collectives.
    fn ledger(&self) -> &CostLedger;

    /// Synchronize all ranks in the group.
    fn barrier(&self);

    /// Gather equal-length contributions from every rank; the result is the
    /// concatenation in rank order, stored on every rank.
    fn all_gather(&self, v: &[f64]) -> Vec<f64>;

    /// Variable-length all-gather; returns per-rank vectors.
    fn all_gather_v(&self, v: &[f64]) -> Vec<Vec<f64>>;

    /// Element-wise sum of equal-length vectors, replicated on all ranks.
    fn all_reduce_sum(&self, v: &[f64]) -> Vec<f64>;

    /// Sum equal-length vectors and scatter the result: rank `i` receives
    /// the segment `[offsets[i], offsets[i] + counts[i])` of the sum.
    /// `counts` must sum to the vector length.
    fn reduce_scatter_sum(&self, v: &[f64], counts: &[usize]) -> Vec<f64>;

    /// Broadcast `v` from `root` to every rank.
    fn broadcast(&self, root: usize, v: &[f64]) -> Vec<f64>;

    /// Gather variable-length contributions onto `root` only (others get
    /// an empty vec). Cost charged: `log P · α + n·δ(P) · β`.
    fn gather(&self, root: usize, v: &[f64]) -> Vec<Vec<f64>>;

    /// Scatter: `root` provides one chunk per rank; every rank receives its
    /// chunk. Non-root ranks pass anything (ignored).
    fn scatter(&self, root: usize, chunks: Vec<Vec<f64>>) -> Vec<f64>;

    /// Point-to-point exchange round: every rank offers at most one message
    /// `(dest, payload)`; returns the message addressed to this rank, if
    /// any. (A BSP-superstep formulation of send/recv: all ranks of the
    /// group must call this together.)
    fn sendrecv_round(&self, msg: Option<(usize, Vec<f64>)>) -> Option<Vec<f64>>;

    /// Personalized all-to-all: `chunks[j]` is sent to rank `j`; the result
    /// concatenates the chunks every rank addressed to us, in rank order.
    fn all_to_all(&self, chunks: Vec<Vec<f64>>) -> Vec<Vec<f64>>;

    /// Split into sub-communicators by `color`; ranks sharing a color form a
    /// group ordered by `(key, parent rank)`.
    fn split(&self, color: i64, key: i64) -> Self
    where
        Self: Sized;
}

// ---------------------------------------------------------------------------
// §II-E model charges, shared verbatim by both backends
// ---------------------------------------------------------------------------

/// Ledger charges for the §II-E closed forms. Both backends call these with
/// the same arguments, so the modeled ledger is identical by construction;
/// the p2p backend tracks its real wire traffic separately.
pub(crate) mod charge {
    use crate::cost::CostLedger;

    #[inline]
    pub fn log_p(size: usize) -> u64 {
        (size.max(2) as f64).log2().ceil() as u64
    }

    #[inline]
    pub fn delta(size: usize) -> u64 {
        u64::from(size > 1)
    }

    pub fn barrier(l: &CostLedger, p: usize) {
        l.charge_messages(log_p(p));
    }

    pub fn all_gather(l: &CostLedger, p: usize, total_words: usize) {
        l.charge_messages(log_p(p));
        l.charge_comm_words(delta(p) * total_words as u64);
    }

    pub fn all_reduce(l: &CostLedger, p: usize, n: usize) {
        l.charge_messages(2 * log_p(p));
        l.charge_comm_words(2 * delta(p) * n as u64);
        l.charge_flops(delta(p) * n as u64);
    }

    pub fn reduce_scatter(l: &CostLedger, p: usize, n: usize) {
        l.charge_messages(log_p(p));
        l.charge_comm_words(delta(p) * n as u64);
        l.charge_flops(delta(p) * n as u64);
    }

    pub fn broadcast(l: &CostLedger, p: usize, n: usize) {
        l.charge_messages(log_p(p));
        l.charge_comm_words(delta(p) * n as u64);
    }

    pub fn gather(l: &CostLedger, p: usize, total_words: usize) {
        l.charge_messages(log_p(p));
        l.charge_comm_words(delta(p) * total_words as u64);
    }

    pub fn scatter(l: &CostLedger, p: usize, mine_words: usize) {
        l.charge_messages(log_p(p));
        l.charge_comm_words(delta(p) * mine_words as u64);
    }

    pub fn all_to_all(l: &CostLedger, p: usize, n: usize) {
        l.charge_messages(log_p(p));
        l.charge_comm_words(delta(p) * n as u64);
    }

    pub fn sendrecv(l: &CostLedger, p: usize, sent_words: usize, recv_words: usize) {
        l.charge_messages(u64::from(sent_words + recv_words > 0));
        l.charge_comm_words(delta(p) * (sent_words + recv_words) as u64);
    }

    pub fn split(l: &CostLedger, p: usize) {
        l.charge_messages(log_p(p));
    }
}

// ---------------------------------------------------------------------------
// Rendezvous backend
// ---------------------------------------------------------------------------

type AnyBox = Box<dyn Any + Send + Sync>;

/// Phase of the rendezvous slot: ranks deposit, then all take the combined
/// result, then the slot resets.
enum Phase {
    Collecting,
    Distributing,
}

struct Slot {
    phase: Phase,
    arrived: usize,
    taken: usize,
    deposits: Vec<Option<AnyBox>>,
    all: Option<Arc<Vec<AnyBox>>>,
}

/// Shared state of one rendezvous group (one per process group).
struct GroupState {
    size: usize,
    slot: Mutex<Slot>,
    cv: Condvar,
    /// Registry for `split`: maps (split sequence number, color) to the
    /// freshly created child group, so all members agree on one state.
    splits: Mutex<HashMap<(u64, i64), Arc<GroupState>>>,
    split_seq: Mutex<u64>,
    /// World-wide poison flag, shared with every sub-group.
    abort: Abort,
}

impl GroupState {
    fn new(size: usize, abort: Abort) -> Arc<Self> {
        let state = Arc::new(GroupState {
            size,
            slot: Mutex::new(Slot {
                phase: Phase::Collecting,
                arrived: 0,
                taken: 0,
                deposits: (0..size).map(|_| None).collect(),
                all: None,
            }),
            cv: Condvar::new(),
            splits: Mutex::new(HashMap::new()),
            split_seq: Mutex::new(0),
            abort: abort.clone(),
        });
        let weak = Arc::downgrade(&state);
        abort.register(Box::new(move || {
            if let Some(s) = weak.upgrade() {
                let _g = s.slot.lock();
                s.cv.notify_all();
            }
        }));
        state
    }

    /// The core primitive: every member deposits a value and receives a
    /// shared view of all deposits, indexed by group rank.
    fn exchange(&self, rank: usize, value: AnyBox) -> Arc<Vec<AnyBox>> {
        let mut g = self.slot.lock();
        // Wait out the draining phase of the previous round.
        while !matches!(g.phase, Phase::Collecting) {
            self.abort.check();
            self.cv.wait(&mut g);
        }
        debug_assert!(g.deposits[rank].is_none(), "rank {rank} double deposit");
        g.deposits[rank] = Some(value);
        g.arrived += 1;
        if g.arrived == self.size {
            let all: Vec<AnyBox> = g.deposits.iter_mut().map(|d| d.take().unwrap()).collect();
            g.all = Some(Arc::new(all));
            g.phase = Phase::Distributing;
            g.taken = 0;
            self.cv.notify_all();
        } else {
            while matches!(g.phase, Phase::Collecting) {
                self.abort.check();
                self.cv.wait(&mut g);
            }
        }
        let res = g.all.clone().expect("distribution phase must hold result");
        g.taken += 1;
        if g.taken == self.size {
            g.all = None;
            g.arrived = 0;
            g.phase = Phase::Collecting;
            self.cv.notify_all();
        }
        res
    }
}

/// The centralized rendezvous backend: every collective is an
/// all-deposit/all-take barrier on one shared slot.
///
/// Clones and sub-communicators created by [`Collectives::split`] share the
/// rank's cost ledger.
#[derive(Clone)]
pub struct Rendezvous {
    state: Arc<GroupState>,
    rank: usize,
    size: usize,
    ledger: CostLedger,
}

impl Rendezvous {
    /// Create the world for `size` ranks. Returned in rank order; each must
    /// be moved to its own thread.
    pub fn world(size: usize) -> Vec<Rendezvous> {
        assert!(size > 0);
        let state = GroupState::new(size, Abort::new());
        (0..size)
            .map(|rank| Rendezvous {
                state: state.clone(),
                rank,
                size,
                ledger: CostLedger::new(),
            })
            .collect()
    }

    /// Poison the world: every rank blocked in a collective (on any
    /// sub-communicator of this world) wakes up and panics.
    pub(crate) fn abort(&self) {
        self.state.abort.set();
    }

    fn gather_internal(&self, v: &[f64]) -> Arc<Vec<AnyBox>> {
        self.state.exchange(self.rank, Box::new(v.to_vec()))
    }
}

fn slice_of(b: &AnyBox) -> &[f64] {
    b.downcast_ref::<Vec<f64>>()
        .expect("collective deposit type mismatch")
}

impl Collectives for Rendezvous {
    #[inline]
    fn rank(&self) -> usize {
        self.rank
    }

    #[inline]
    fn size(&self) -> usize {
        self.size
    }

    fn ledger(&self) -> &CostLedger {
        &self.ledger
    }

    fn barrier(&self) {
        charge::barrier(&self.ledger, self.size);
        let _ = self.state.exchange(self.rank, Box::new(()));
    }

    fn all_gather(&self, v: &[f64]) -> Vec<f64> {
        let res = self.gather_internal(v);
        let total: usize = res.iter().map(|r| slice_of(r).len()).sum();
        charge::all_gather(&self.ledger, self.size, total);
        let mut out = Vec::with_capacity(total);
        for r in res.iter() {
            out.extend_from_slice(slice_of(r));
        }
        out
    }

    fn all_gather_v(&self, v: &[f64]) -> Vec<Vec<f64>> {
        let res = self.gather_internal(v);
        let total: usize = res.iter().map(|r| slice_of(r).len()).sum();
        charge::all_gather(&self.ledger, self.size, total);
        res.iter().map(|r| slice_of(r).to_vec()).collect()
    }

    fn all_reduce_sum(&self, v: &[f64]) -> Vec<f64> {
        let res = self.gather_internal(v);
        charge::all_reduce(&self.ledger, self.size, v.len());
        let mut out = vec![0.0f64; v.len()];
        for r in res.iter() {
            let s = slice_of(r);
            assert_eq!(s.len(), out.len(), "all_reduce length mismatch");
            for (o, x) in out.iter_mut().zip(s.iter()) {
                *o += x;
            }
        }
        out
    }

    fn reduce_scatter_sum(&self, v: &[f64], counts: &[usize]) -> Vec<f64> {
        assert_eq!(counts.len(), self.size, "one count per rank required");
        let total: usize = counts.iter().sum();
        assert_eq!(total, v.len(), "counts must cover the whole vector");
        let res = self.gather_internal(v);
        charge::reduce_scatter(&self.ledger, self.size, v.len());
        let offset: usize = counts[..self.rank].iter().sum();
        let mine = counts[self.rank];
        let mut out = vec![0.0f64; mine];
        for r in res.iter() {
            let s = slice_of(r);
            for (o, x) in out.iter_mut().zip(s[offset..offset + mine].iter()) {
                *o += x;
            }
        }
        out
    }

    fn broadcast(&self, root: usize, v: &[f64]) -> Vec<f64> {
        let payload: Vec<f64> = if self.rank == root {
            v.to_vec()
        } else {
            Vec::new()
        };
        let res = self.state.exchange(self.rank, Box::new(payload));
        let data = slice_of(&res[root]).to_vec();
        charge::broadcast(&self.ledger, self.size, data.len());
        data
    }

    fn gather(&self, root: usize, v: &[f64]) -> Vec<Vec<f64>> {
        let res = self.gather_internal(v);
        let total: usize = res.iter().map(|r| slice_of(r).len()).sum();
        charge::gather(&self.ledger, self.size, total);
        if self.rank == root {
            res.iter().map(|r| slice_of(r).to_vec()).collect()
        } else {
            Vec::new()
        }
    }

    fn scatter(&self, root: usize, chunks: Vec<Vec<f64>>) -> Vec<f64> {
        if self.rank == root {
            assert_eq!(chunks.len(), self.size, "one chunk per rank required");
        }
        let payload: Vec<Vec<f64>> = if self.rank == root {
            chunks
        } else {
            Vec::new()
        };
        let res = self.state.exchange(self.rank, Box::new(payload));
        let all: &Vec<Vec<f64>> = res[root]
            .downcast_ref()
            .expect("scatter deposit type mismatch");
        let mine = all[self.rank].clone();
        charge::scatter(&self.ledger, self.size, mine.len());
        mine
    }

    fn sendrecv_round(&self, msg: Option<(usize, Vec<f64>)>) -> Option<Vec<f64>> {
        if let Some((dest, _)) = &msg {
            assert!(*dest < self.size, "destination out of range");
        }
        let sent_words = msg.as_ref().map_or(0, |(_, p)| p.len());
        let res = self.state.exchange(self.rank, Box::new(msg));
        let mut incoming: Option<Vec<f64>> = None;
        for r in res.iter() {
            let m: &Option<(usize, Vec<f64>)> =
                r.downcast_ref().expect("sendrecv deposit type mismatch");
            if let Some((dest, payload)) = m {
                if *dest == self.rank {
                    assert!(
                        incoming.is_none(),
                        "multiple messages addressed to rank {} in one round",
                        self.rank
                    );
                    incoming = Some(payload.clone());
                }
            }
        }
        let recv_words = incoming.as_ref().map_or(0, |p| p.len());
        charge::sendrecv(&self.ledger, self.size, sent_words, recv_words);
        incoming
    }

    fn all_to_all(&self, chunks: Vec<Vec<f64>>) -> Vec<Vec<f64>> {
        assert_eq!(chunks.len(), self.size, "one chunk per destination rank");
        let sent: usize = chunks.iter().map(|c| c.len()).sum();
        let res = self.state.exchange(self.rank, Box::new(chunks));
        let mut out = Vec::with_capacity(self.size);
        let mut received = 0usize;
        for r in res.iter() {
            let all: &Vec<Vec<f64>> = r.downcast_ref().expect("all_to_all deposit type mismatch");
            received += all[self.rank].len();
            out.push(all[self.rank].clone());
        }
        charge::all_to_all(&self.ledger, self.size, sent.max(received));
        out
    }

    fn split(&self, color: i64, key: i64) -> Rendezvous {
        // Round 1: agree on a split sequence number and learn all colors.
        let res = self
            .state
            .exchange(self.rank, Box::new((color, key, self.rank)));
        let mut triples: Vec<(i64, i64, usize)> = res
            .iter()
            .map(|r| *r.downcast_ref::<(i64, i64, usize)>().unwrap())
            .collect();
        triples.sort_by_key(|&(c, k, r)| (c, k, r));
        let members: Vec<usize> = triples
            .iter()
            .filter(|&&(c, _, _)| c == color)
            .map(|&(_, _, r)| r)
            .collect();
        let my_new_rank = members.iter().position(|&r| r == self.rank).unwrap();
        let group_size = members.len();

        // Round 2: the lowest-ranked member of each color creates the child
        // state; everyone retrieves it from the parent's registry keyed by a
        // sequence number all ranks advance together.
        let seq = {
            let s = self.state.split_seq.lock();
            // All ranks read the same value; only advance after the barrier
            // below, so do it on first access per round via arrived trick:
            // simplest correct scheme: advance in lockstep after use.
            *s
        };
        if members[0] == self.rank {
            let child = GroupState::new(group_size, self.state.abort.clone());
            self.state.splits.lock().insert((seq, color), child);
        }
        // Make the creation visible to all members before lookup.
        let _ = self.state.exchange(self.rank, Box::new(()));
        let child = self
            .state
            .splits
            .lock()
            .get(&(seq, color))
            .cloned()
            .expect("split registry entry must exist");
        // Advance the sequence number exactly once (rank 0 of the parent),
        // then synchronize so no rank starts the next split early.
        if self.rank == 0 {
            *self.state.split_seq.lock() += 1;
        }
        let _ = self.state.exchange(self.rank, Box::new(()));
        // Garbage-collect registry entries from this round.
        if members[0] == self.rank {
            self.state.splits.lock().remove(&(seq, color));
        }

        charge::split(&self.ledger, self.size);
        Rendezvous {
            state: child,
            rank: my_new_rank,
            size: group_size,
            ledger: self.ledger.clone(),
        }
    }
}

// ---------------------------------------------------------------------------
// Backend-polymorphic facade
// ---------------------------------------------------------------------------

#[derive(Clone)]
enum Inner {
    Rendezvous(Rendezvous),
    P2p(P2p),
}

/// A process group: `rank` of `size` peers that can run collectives, backed
/// by either collective implementation (see [`Backend`]).
///
/// Clones and sub-communicators created by [`Collectives::split`] share the
/// rank's cost ledger. Build worlds with [`CommWorld`].
#[derive(Clone)]
pub struct Communicator {
    inner: Inner,
}

macro_rules! delegate {
    ($self:ident, $c:ident => $e:expr) => {
        match &$self.inner {
            Inner::Rendezvous($c) => $e,
            Inner::P2p($c) => $e,
        }
    };
}

impl Communicator {
    /// This rank's index within the group.
    #[inline]
    pub fn rank(&self) -> usize {
        delegate!(self, c => c.rank())
    }

    /// Number of ranks in the group.
    #[inline]
    pub fn size(&self) -> usize {
        delegate!(self, c => c.size())
    }

    /// The cost ledger charged by this communicator's collectives.
    pub fn ledger(&self) -> &CostLedger {
        delegate!(self, c => c.ledger())
    }

    /// Which backend this communicator runs on.
    pub fn backend(&self) -> Backend {
        match &self.inner {
            Inner::Rendezvous(_) => Backend::Rendezvous,
            Inner::P2p(_) => Backend::P2p,
        }
    }

    /// Measured wire traffic of this rank (messages/words actually sent and
    /// received over channels). `None` on the rendezvous backend, which has
    /// no wire. Sub-communicators share the parent's counters.
    pub fn transport_stats(&self) -> Option<TransportCounters> {
        match &self.inner {
            Inner::Rendezvous(_) => None,
            Inner::P2p(c) => Some(c.wire_counters()),
        }
    }

    /// Poison the world so peers blocked in collectives panic instead of
    /// hanging; used by the runtime when a rank dies.
    pub(crate) fn abort(&self) {
        match &self.inner {
            Inner::Rendezvous(c) => c.abort(),
            Inner::P2p(c) => c.abort(),
        }
    }
}

impl Collectives for Communicator {
    fn rank(&self) -> usize {
        delegate!(self, c => c.rank())
    }

    fn size(&self) -> usize {
        delegate!(self, c => c.size())
    }

    fn ledger(&self) -> &CostLedger {
        delegate!(self, c => c.ledger())
    }

    fn barrier(&self) {
        delegate!(self, c => c.barrier())
    }

    fn all_gather(&self, v: &[f64]) -> Vec<f64> {
        delegate!(self, c => c.all_gather(v))
    }

    fn all_gather_v(&self, v: &[f64]) -> Vec<Vec<f64>> {
        delegate!(self, c => c.all_gather_v(v))
    }

    fn all_reduce_sum(&self, v: &[f64]) -> Vec<f64> {
        delegate!(self, c => c.all_reduce_sum(v))
    }

    fn reduce_scatter_sum(&self, v: &[f64], counts: &[usize]) -> Vec<f64> {
        delegate!(self, c => c.reduce_scatter_sum(v, counts))
    }

    fn broadcast(&self, root: usize, v: &[f64]) -> Vec<f64> {
        delegate!(self, c => c.broadcast(root, v))
    }

    fn gather(&self, root: usize, v: &[f64]) -> Vec<Vec<f64>> {
        delegate!(self, c => c.gather(root, v))
    }

    fn scatter(&self, root: usize, chunks: Vec<Vec<f64>>) -> Vec<f64> {
        delegate!(self, c => c.scatter(root, chunks))
    }

    fn sendrecv_round(&self, msg: Option<(usize, Vec<f64>)>) -> Option<Vec<f64>> {
        delegate!(self, c => c.sendrecv_round(msg))
    }

    fn all_to_all(&self, chunks: Vec<Vec<f64>>) -> Vec<Vec<f64>> {
        delegate!(self, c => c.all_to_all(chunks))
    }

    fn split(&self, color: i64, key: i64) -> Communicator {
        let inner = match &self.inner {
            Inner::Rendezvous(c) => Inner::Rendezvous(c.split(color, key)),
            Inner::P2p(c) => Inner::P2p(c.split(color, key)),
        };
        Communicator { inner }
    }
}

/// Builder for a world of [`Communicator`]s; owns the backend choice.
///
/// ```
/// use pp_comm::{Backend, Collectives, CommWorld};
/// let comms = CommWorld::new(2).backend(Backend::P2p).build();
/// assert_eq!(comms.len(), 2);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct CommWorld {
    size: usize,
    backend: Backend,
}

impl CommWorld {
    /// Start building a world of `size` ranks on the default backend.
    pub fn new(size: usize) -> Self {
        CommWorld {
            size,
            backend: Backend::default(),
        }
    }

    /// Choose the collective backend.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Build the world communicators, in rank order; each must be moved to
    /// its own thread.
    pub fn build(self) -> Vec<Communicator> {
        match self.backend {
            Backend::Rendezvous => Rendezvous::world(self.size)
                .into_iter()
                .map(|c| Communicator {
                    inner: Inner::Rendezvous(c),
                })
                .collect(),
            Backend::P2p => P2p::world(self.size)
                .into_iter()
                .map(|c| Communicator {
                    inner: Inner::P2p(c),
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn run_ranks_on<R: Send + 'static>(
        backend: Backend,
        size: usize,
        f: impl Fn(Communicator) -> R + Send + Sync + 'static,
    ) -> Vec<R> {
        let comms = CommWorld::new(size).backend(backend).build();
        let f = Arc::new(f);
        let handles: Vec<_> = comms
            .into_iter()
            .map(|c| {
                let f = f.clone();
                thread::spawn(move || f(c))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    /// Run the same rank program on both backends; semantics tests below
    /// must hold identically for each.
    fn run_ranks<R: Send + 'static>(
        size: usize,
        f: impl Fn(Communicator) -> R + Send + Sync + Clone + 'static,
    ) -> Vec<Vec<R>> {
        Backend::ALL
            .iter()
            .map(|&b| run_ranks_on(b, size, f.clone()))
            .collect()
    }

    #[test]
    fn backend_parses_and_displays() {
        assert_eq!("rendezvous".parse::<Backend>(), Ok(Backend::Rendezvous));
        assert_eq!("p2p".parse::<Backend>(), Ok(Backend::P2p));
        assert_eq!(Backend::P2p.to_string(), "p2p");
        let err = "mpi".parse::<Backend>().unwrap_err();
        assert!(err.contains("rendezvous|p2p"), "got: {err}");
    }

    #[test]
    fn all_gather_concatenates_in_rank_order() {
        for out in run_ranks(4, |c| {
            let v = vec![c.rank() as f64; 2];
            c.all_gather(&v)
        }) {
            for o in out {
                assert_eq!(o, vec![0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0]);
            }
        }
    }

    #[test]
    fn all_reduce_sums() {
        for out in run_ranks(3, |c| c.all_reduce_sum(&[1.0, c.rank() as f64])) {
            for o in out {
                assert_eq!(o, vec![3.0, 3.0]);
            }
        }
    }

    #[test]
    fn reduce_scatter_segments() {
        for out in run_ranks(2, |c| {
            let v = vec![1.0, 2.0, 3.0, 4.0, 5.0];
            let seg = c.reduce_scatter_sum(&v, &[2, 3]);
            (c.rank(), seg)
        }) {
            for (rank, seg) in out {
                if rank == 0 {
                    assert_eq!(seg, vec![2.0, 4.0]);
                } else {
                    assert_eq!(seg, vec![6.0, 8.0, 10.0]);
                }
            }
        }
    }

    #[test]
    fn broadcast_from_root() {
        for out in run_ranks(4, |c| {
            let v = if c.rank() == 2 {
                vec![7.0, 8.0]
            } else {
                vec![]
            };
            c.broadcast(2, &v)
        }) {
            for o in out {
                assert_eq!(o, vec![7.0, 8.0]);
            }
        }
    }

    #[test]
    fn gather_collects_on_root_only() {
        for out in run_ranks(3, |c| {
            let mine = vec![c.rank() as f64; c.rank() + 1];
            (c.rank(), c.gather(1, &mine))
        }) {
            for (rank, got) in out {
                if rank == 1 {
                    assert_eq!(got.len(), 3);
                    assert_eq!(got[0], vec![0.0]);
                    assert_eq!(got[2], vec![2.0, 2.0, 2.0]);
                } else {
                    assert!(got.is_empty());
                }
            }
        }
    }

    #[test]
    fn scatter_distributes_chunks() {
        for out in run_ranks(3, |c| {
            let chunks = if c.rank() == 0 {
                vec![vec![10.0], vec![20.0, 21.0], vec![30.0]]
            } else {
                Vec::new()
            };
            (c.rank(), c.scatter(0, chunks))
        }) {
            for (rank, got) in out {
                match rank {
                    0 => assert_eq!(got, vec![10.0]),
                    1 => assert_eq!(got, vec![20.0, 21.0]),
                    _ => assert_eq!(got, vec![30.0]),
                }
            }
        }
    }

    #[test]
    fn sendrecv_ring_shift() {
        // Every rank sends to its right neighbour; everyone receives from
        // the left.
        for out in run_ranks(4, |c| {
            let dest = (c.rank() + 1) % 4;
            let got = c.sendrecv_round(Some((dest, vec![c.rank() as f64])));
            (c.rank(), got)
        }) {
            for (rank, got) in out {
                let expect = ((rank + 3) % 4) as f64;
                assert_eq!(got, Some(vec![expect]));
            }
        }
    }

    #[test]
    fn sendrecv_with_silent_ranks() {
        for out in run_ranks(3, |c| {
            let msg = if c.rank() == 0 {
                Some((2, vec![5.0]))
            } else {
                None
            };
            (c.rank(), c.sendrecv_round(msg))
        }) {
            for (rank, got) in out {
                if rank == 2 {
                    assert_eq!(got, Some(vec![5.0]));
                } else {
                    assert_eq!(got, None);
                }
            }
        }
    }

    #[test]
    fn all_to_all_routes_chunks() {
        for out in run_ranks(3, |c| {
            let me = c.rank() as f64;
            // Send [me, dest] to each destination.
            let chunks: Vec<Vec<f64>> = (0..3).map(|d| vec![me, d as f64]).collect();
            (c.rank(), c.all_to_all(chunks))
        }) {
            for (rank, got) in out {
                for (src, chunk) in got.iter().enumerate() {
                    assert_eq!(chunk, &vec![src as f64, rank as f64]);
                }
            }
        }
    }

    #[test]
    fn repeated_collectives_do_not_deadlock() {
        for out in run_ranks(4, |c| {
            let mut acc = 0.0;
            for i in 0..50 {
                let s = c.all_reduce_sum(&[i as f64]);
                acc += s[0];
            }
            acc
        }) {
            let expect: f64 = (0..50).map(|i| (i * 4) as f64).sum();
            for o in out {
                assert_eq!(o, expect);
            }
        }
    }

    #[test]
    fn split_forms_correct_groups() {
        for out in run_ranks(6, |c| {
            // Two colors: even/odd world ranks.
            let color = (c.rank() % 2) as i64;
            let sub = c.split(color, c.rank() as i64);
            let got = sub.all_gather(&[c.rank() as f64]);
            (c.rank(), sub.rank(), sub.size(), got)
        }) {
            for (wrank, srank, ssize, got) in out {
                assert_eq!(ssize, 3);
                assert_eq!(srank, wrank / 2);
                let expect: Vec<f64> = (0..3).map(|i| (2 * i + wrank % 2) as f64).collect();
                assert_eq!(got, expect);
            }
        }
    }

    #[test]
    fn nested_split_and_mixed_collectives() {
        for out in run_ranks(8, |c| {
            let sub = c.split((c.rank() / 4) as i64, 0);
            let subsub = sub.split((sub.rank() % 2) as i64, 0);
            let x = subsub.all_reduce_sum(&[1.0]);
            c.barrier();
            x[0]
        }) {
            for o in out {
                assert_eq!(o, 2.0);
            }
        }
    }

    #[test]
    fn collectives_charge_ledger_identically_on_both_backends() {
        for out in run_ranks(4, |c| {
            let _ = c.all_gather(&[1.0, 2.0]);
            c.ledger().snapshot()
        }) {
            for s in out {
                assert_eq!(s.messages, 2); // log2(4)
                assert_eq!(s.comm_words, 8); // total gathered words
            }
        }
    }

    #[test]
    fn single_rank_charges_no_bandwidth() {
        for out in run_ranks(1, |c| {
            let g = c.all_gather(&[5.0]);
            assert_eq!(g, vec![5.0]);
            c.ledger().snapshot()
        }) {
            assert_eq!(out[0].comm_words, 0);
        }
    }

    #[test]
    fn transport_stats_only_on_p2p() {
        let ren = run_ranks_on(Backend::Rendezvous, 2, |c| {
            let _ = c.all_reduce_sum(&[1.0]);
            c.transport_stats()
        });
        assert!(ren.iter().all(|s| s.is_none()));
        let p2p = run_ranks_on(Backend::P2p, 2, |c| {
            let _ = c.all_reduce_sum(&[1.0]);
            c.transport_stats()
        });
        for s in p2p {
            let s = s.expect("p2p must report wire counters");
            assert!(s.msgs_sent > 0, "all_reduce must touch the wire");
            assert_eq!(s.msgs_sent, s.msgs_recv, "symmetric schedule");
        }
    }
}
