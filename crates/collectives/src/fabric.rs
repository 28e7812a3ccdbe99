//! The in-process fabric; see [`LocalFabric`].

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use crate::error::CollectiveError;
use crate::transport::{BufferPool, Message, Transport, WorldChange};

/// Construction knobs of a [`LocalFabric`]; the defaults are what
/// [`LocalFabric::create`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricOptions {
    /// World generation the endpoints start at.
    pub generation: u64,
    /// How long a resize waits at the gate for the other survivors.
    pub gate_timeout: Duration,
    /// Failure detector: heartbeat interval and the number of missed
    /// intervals after which a silent member counts as wedged. Whoever
    /// enables it must call every endpoint's [`LocalEndpoint::beat_fn`]
    /// at least once per interval.
    pub heartbeat: Option<(Duration, u32)>,
    /// Largest buffer capacity the endpoint's pool keeps (see
    /// [`BufferPool::new`]).
    pub pool_max_buf_bytes: usize,
}

impl Default for FabricOptions {
    fn default() -> Self {
        FabricOptions {
            generation: 0,
            gate_timeout: Duration::from_secs(30),
            heartbeat: None,
            pool_max_buf_bytes: BufferPool::DEFAULT_MAX_BUF_BYTES,
        }
    }
}

/// A message as queued: the payload plus the sender's world generation.
struct Stamped {
    generation: u64,
    msg: Message,
}

#[derive(Default)]
struct QueueState {
    msgs: VecDeque<Stamped>,
    /// The pair is severed (an end dropped, or a resize left an end out):
    /// sends fail with `Disconnected`, receives drain what is queued first.
    closed: bool,
    /// The receiver is parked on `ready`; a send only signals then.
    waiting: bool,
}

/// One directed pair's FIFO.
#[derive(Default)]
struct Queue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

impl Queue {
    /// Every update leaves the state valid, so a poisoned lock (a panic
    /// elsewhere while holding it) is safe to keep using.
    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Severs the pair, dropping what is queued if nobody will read it,
    /// and wakes a parked receiver.
    fn close(&self, discard: bool) {
        let mut q = self.lock();
        q.closed = true;
        if discard {
            q.msgs.clear();
        }
        self.ready.notify_all();
    }
}

struct Shared {
    /// `queues[from][to]` between fabric slots (the diagonal is unused).
    queues: Vec<Vec<Queue>>,
    /// Nanoseconds since `epoch` of each member's last heartbeat or send.
    last_beat_ns: Vec<AtomicU64>,
    epoch: Instant,
    heartbeat: Option<(Duration, u32)>,
    /// The resize gate: the generation each member has last resized to.
    gate: Mutex<Vec<u64>>,
    gate_cv: Condvar,
    gate_timeout: Duration,
}

impl Shared {
    fn beat(&self, slot: usize) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.last_beat_ns[slot].store(now, Ordering::Relaxed);
    }

    /// Whether `slot` has been silent past the miss allowance (never with
    /// the failure detector off).
    fn is_wedged(&self, slot: usize) -> bool {
        self.heartbeat.is_some_and(|(interval, misses)| {
            let last = self.last_beat_ns[slot].load(Ordering::Relaxed);
            let silent = (self.epoch.elapsed().as_nanos() as u64).saturating_sub(last);
            u128::from(silent) > (interval * misses.max(1)).as_nanos()
        })
    }
}

/// The in-process fabric: every rank is a thread of one process, and each
/// directed pair of ranks owns one blocking, unbounded FIFO. A send never
/// waits (eager-protocol MPI), so a collective may queue any number of
/// segments before its first receive; a receive blocks until a message,
/// the sender's departure, the failure detector or the deadline ends the
/// wait. The contract is the one `dear-net`'s TCP endpoint speaks:
///
/// - every message is stamped with the sender's **world generation** and
///   checked on receipt, so traffic from a previous incarnation of a
///   resized world surfaces as [`CollectiveError::StaleGeneration`]
///   instead of corrupting a collective;
/// - a dropped endpoint **departs**: its peers first drain what it already
///   sent, then see [`CollectiveError::Disconnected`], and sends to it fail
///   the same way;
/// - with [`FabricOptions::heartbeat`] set, a receiver blocked on a member
///   whose liveness stamp ([`LocalEndpoint::beat_fn`]) goes stale for the
///   miss budget declares it wedged with [`CollectiveError::Aborted`];
/// - [`Transport::reconfigure`] and [`LocalEndpoint::remap`] survive member
///   loss in place: survivors meet at a **resize gate** (a barrier over
///   the listed survivors only, so a dead member cannot block it), drain
///   every stale-generation message out of their queues, and renumber.
///
/// A fabric may cover only a co-located subset of a larger world
/// ([`LocalFabric::with_options`]); endpoints then address peers by
/// **global** rank and refuse off-fabric ranks with
/// [`CollectiveError::InvalidRank`].
///
/// # Examples
///
/// ```
/// use dear_collectives::{LocalFabric, Transport};
///
/// let mut eps = LocalFabric::create(2);
/// let b = eps.pop().unwrap();
/// let a = eps.pop().unwrap();
/// std::thread::scope(|s| {
///     s.spawn(|| a.send(1, vec![1.0, 2.0].into()).unwrap());
///     s.spawn(|| assert_eq!(b.recv(0).unwrap(), vec![1.0, 2.0]));
/// });
/// ```
#[derive(Debug)]
pub struct LocalFabric;

impl LocalFabric {
    /// Creates endpoints for `world` ranks with default options; element
    /// `r` belongs to rank `r`.
    ///
    /// # Panics
    ///
    /// Panics if `world == 0`.
    #[must_use]
    pub fn create(world: usize) -> Vec<LocalEndpoint> {
        let members: Vec<usize> = (0..world).collect();
        Self::with_options(world, &members, FabricOptions::default())
    }

    /// Creates a fabric for the co-located subset `members` (global ranks,
    /// strictly ascending) of a world of `world` ranks. Element `i` belongs
    /// to global rank `members[i]`; sends to ranks outside `members`
    /// return [`CollectiveError::InvalidRank`].
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty, unsorted, or lists a rank `>= world`.
    #[must_use]
    pub fn with_options(
        world: usize,
        members: &[usize],
        opts: FabricOptions,
    ) -> Vec<LocalEndpoint> {
        assert!(!members.is_empty(), "a fabric needs at least one member");
        assert!(
            members.windows(2).all(|w| w[0] < w[1]),
            "fabric members must be strictly ascending global ranks"
        );
        assert!(
            members[members.len() - 1] < world,
            "fabric member out of range for world {world}"
        );
        let n = members.len();
        let shared = Arc::new(Shared {
            queues: (0..n)
                .map(|_| (0..n).map(|_| Queue::default()).collect())
                .collect(),
            last_beat_ns: (0..n).map(|_| AtomicU64::new(0)).collect(),
            epoch: Instant::now(),
            heartbeat: opts.heartbeat,
            gate: Mutex::new(vec![0; n]),
            gate_cv: Condvar::new(),
            gate_timeout: opts.gate_timeout,
        });
        let mut peer_slots = vec![None; world];
        for (slot, &m) in members.iter().enumerate() {
            peer_slots[m] = Some(slot);
        }
        members
            .iter()
            .enumerate()
            .map(|(slot, &rank)| LocalEndpoint {
                shared: Arc::clone(&shared),
                slot,
                rank,
                world,
                generation: opts.generation,
                peer_slots: peer_slots.clone(),
                recv_timeout: Mutex::new(None),
                pool: BufferPool::new(opts.pool_max_buf_bytes),
            })
            .collect()
    }
}

/// One rank's endpoint of a [`LocalFabric`].
pub struct LocalEndpoint {
    shared: Arc<Shared>,
    /// This endpoint's fabric slot (stable across resizes).
    slot: usize,
    /// This endpoint's **global** rank.
    rank: usize,
    /// The **global** world size (not the fabric's member count).
    world: usize,
    generation: u64,
    /// Global rank → fabric slot for co-located peers; `None` off-fabric.
    peer_slots: Vec<Option<usize>>,
    recv_timeout: Mutex<Option<Duration>>,
    pool: BufferPool,
}

impl fmt::Debug for LocalEndpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LocalEndpoint")
            .field("rank", &self.rank)
            .field("world", &self.world)
            .field("slot", &self.slot)
            .field("generation", &self.generation)
            .finish()
    }
}

impl LocalEndpoint {
    /// The world generation this endpoint currently runs at.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Whether `peer` (a global rank) is reachable over this fabric.
    #[must_use]
    pub fn is_local(&self, peer: usize) -> bool {
        self.peer_slots.get(peer).copied().flatten().is_some()
    }

    /// Global ranks of the co-located peers still connected to this one
    /// (not dropped, not left out by a resize), in ascending order.
    #[must_use]
    pub fn live_peers(&self) -> Vec<usize> {
        (0..self.world)
            .filter(|&r| r != self.rank)
            .filter(|&r| self.peer_slots[r].is_some_and(|s| !self.severed_from(s)))
            .collect()
    }

    /// A handle that refreshes this member's liveness stamp, for a
    /// heartbeat thread that outlives borrows of the endpoint. Only
    /// meaningful with [`FabricOptions::heartbeat`] set.
    pub fn beat_fn(&self) -> impl Fn() + Send + Sync + 'static {
        let shared = Arc::clone(&self.shared);
        let slot = self.slot;
        move || shared.beat(slot)
    }

    /// Whether the queue from fabric slot `from` to this endpoint is closed.
    fn severed_from(&self, from: usize) -> bool {
        self.shared.queues[from][self.slot].lock().closed
    }

    fn slot_of(&self, peer: usize) -> Result<usize, CollectiveError> {
        self.check_peer(peer)?;
        self.peer_slots[peer].ok_or(CollectiveError::InvalidRank {
            rank: peer,
            world: self.world,
        })
    }

    /// Survives the loss of members in place, re-identifying the
    /// survivors: `pairs` maps each surviving member's **old** global rank
    /// to its **new** one (this endpoint included); `new_world` and
    /// `new_generation` come from whoever adjudicated the resize (the TCP
    /// rendezvous in a tiered deployment, [`Transport::reconfigure`] for a
    /// standalone fabric). New ranks need not ascend with old ones, but
    /// the generation must grow.
    ///
    /// Every listed survivor must call this concurrently: they meet at the
    /// resize gate (unlisted members are not waited on, so a dead one
    /// cannot block it), then drain stale-generation messages. After the gate
    /// nobody still produces old-generation traffic, and the drain stops at
    /// the first new-generation message, so an early finisher's fresh
    /// sends are kept. Queues to and from unlisted members are closed.
    ///
    /// # Errors
    ///
    /// Returns [`CollectiveError::Reconfigure`] when `pairs` omits this
    /// endpoint or names an off-fabric rank, when the generation does not
    /// grow, or when a listed survivor departs or fails to reach the gate
    /// within [`FabricOptions::gate_timeout`].
    pub fn remap(
        &mut self,
        new_world: usize,
        new_generation: u64,
        pairs: &[(usize, usize)],
    ) -> Result<WorldChange, CollectiveError> {
        let reconf = |reason: String| CollectiveError::Reconfigure { reason };
        let (rank, generation) = (self.rank, self.generation);
        let mut peer_slots = vec![None; new_world];
        let mut survivors = Vec::with_capacity(pairs.len());
        let mut new_rank = None;
        for &(old, new) in pairs {
            let slot = self.peer_slots.get(old).copied().flatten();
            let slot =
                slot.ok_or_else(|| reconf(format!("survivor rank {old} is not on this fabric")))?;
            let entry = peer_slots.get_mut(new).ok_or_else(|| {
                reconf(format!(
                    "new rank {new} out of range for new world {new_world}"
                ))
            })?;
            *entry = Some(slot);
            survivors.push(slot);
            if slot == self.slot {
                new_rank = Some(new);
            }
        }
        let new_rank = new_rank
            .ok_or_else(|| reconf(format!("survivor list omits this endpoint's rank {rank}")))?;
        if new_generation <= generation {
            return Err(reconf(format!(
                "resize must move past generation {generation}"
            )));
        }
        self.gate(&survivors, new_generation).map_err(reconf)?;
        let queues = &self.shared.queues;
        for peer in (0..queues.len()).filter(|&p| p != self.slot) {
            if survivors.contains(&peer) {
                let mut q = queues[peer][self.slot].lock();
                while q
                    .msgs
                    .front()
                    .is_some_and(|m| m.generation != new_generation)
                {
                    q.msgs.pop_front();
                }
            } else {
                queues[peer][self.slot].close(true);
                queues[self.slot][peer].close(false);
            }
        }
        let change = WorldChange {
            old_rank: self.rank,
            old_world: self.world,
            new_rank,
            new_world,
            generation: new_generation,
        };
        self.peer_slots = peer_slots;
        self.rank = new_rank;
        self.world = new_world;
        self.generation = new_generation;
        Ok(change)
    }

    /// Records that this member resizes to `generation`, then waits until
    /// every survivor (fabric slots) has too, bounded by the gate timeout
    /// and by a survivor's departure. Unlisted members are never waited on.
    fn gate(&self, survivors: &[usize], generation: u64) -> Result<(), String> {
        let shared = &*self.shared;
        let deadline = Instant::now() + shared.gate_timeout;
        let mut reached = shared.gate.lock().expect("resize gate poisoned");
        reached[self.slot] = generation;
        shared.gate_cv.notify_all();
        while !survivors.iter().all(|&s| reached[s] >= generation) {
            if let Some(s) = survivors.iter().find(|&&s| self.severed_from(s)) {
                return Err(format!(
                    "survivor in fabric slot {s} left before the resize gate"
                ));
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(format!(
                    "resize gate timed out after {:?} waiting for survivors",
                    shared.gate_timeout
                ));
            }
            reached = shared
                .gate_cv
                .wait_timeout(reached, deadline - now)
                .expect("resize gate poisoned")
                .0;
        }
        Ok(())
    }
}

impl Transport for LocalEndpoint {
    fn rank(&self) -> usize {
        self.rank
    }

    fn world_size(&self) -> usize {
        self.world
    }

    fn send(&self, to: usize, msg: Message) -> Result<(), CollectiveError> {
        let slot = self.slot_of(to)?;
        // A send is liveness too: a rank deep in a long compute phase
        // between heartbeats proves itself the moment it talks.
        if self.shared.heartbeat.is_some() {
            self.shared.beat(self.slot);
        }
        let queue = &self.shared.queues[self.slot][slot];
        let mut q = queue.lock();
        if q.closed {
            return Err(CollectiveError::Disconnected { peer: to });
        }
        q.msgs.push_back(Stamped {
            generation: self.generation,
            msg,
        });
        if q.waiting {
            queue.ready.notify_one();
        }
        Ok(())
    }

    fn recv(&self, from: usize) -> Result<Message, CollectiveError> {
        let slot = self.slot_of(from)?;
        let shared = &*self.shared;
        let queue = &shared.queues[slot][self.slot];
        let timeout = *self.recv_timeout.lock().expect("recv timeout poisoned");
        let mut deadline = None;
        let mut q = queue.lock();
        loop {
            if let Some(m) = q.msgs.pop_front() {
                if m.generation != self.generation {
                    return Err(CollectiveError::StaleGeneration {
                        peer: from,
                        expected: self.generation,
                        actual: m.generation,
                    });
                }
                return Ok(m.msg);
            }
            // Empty queue: a severed pair first (everything sent before it
            // closed has been delivered by now), then the failure
            // detector's verdict, then the deadline.
            if q.closed {
                return Err(CollectiveError::Disconnected { peer: from });
            }
            if shared.is_wedged(slot) {
                return Err(CollectiveError::Aborted { peer: from });
            }
            // Wake at least once per heartbeat interval to re-check it.
            let mut wait = shared.heartbeat.map(|(interval, _)| interval);
            if let Some(t) = timeout {
                let now = Instant::now();
                let end = *deadline.get_or_insert(now + t);
                if now >= end {
                    return Err(CollectiveError::Timeout {
                        peer: from,
                        millis: t.as_millis() as u64,
                    });
                }
                wait = Some(wait.map_or(end - now, |w| w.min(end - now)));
            }
            q.waiting = true;
            q = match wait {
                None => queue.ready.wait(q).unwrap_or_else(PoisonError::into_inner),
                Some(w) => {
                    queue
                        .ready
                        .wait_timeout(q, w)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
            };
            q.waiting = false;
        }
    }

    fn set_recv_timeout(&self, timeout: Option<Duration>) -> bool {
        *self.recv_timeout.lock().expect("recv timeout poisoned") = timeout;
        true
    }

    fn take_buffer(&self, capacity_bytes: usize) -> Vec<u8> {
        self.pool.take(capacity_bytes)
    }

    fn recycle_buffer(&self, buf: Vec<u8>) {
        self.pool.recycle(buf);
    }

    /// Shrinks the fabric to `survivors` (global ranks, this rank
    /// included), renumbering densely in ascending old-rank order and
    /// bumping the generation — [`LocalEndpoint::remap`] with the map
    /// derived here. The fabric has no rendezvous to discover survivors
    /// with, so `None` is refused, and growing is refused because fabric
    /// membership is fixed at creation. Every survivor must call this
    /// concurrently with the same list; a dead member never blocks it.
    fn reconfigure(&mut self, survivors: Option<&[usize]>) -> Result<WorldChange, CollectiveError> {
        let reconf = |reason: String| Err(CollectiveError::Reconfigure { reason });
        let Some(survivors) = survivors else {
            return reconf("the in-process fabric cannot discover survivors; pass them".into());
        };
        let mut order = survivors.to_vec();
        order.sort_unstable();
        order.dedup();
        if order.len() != survivors.len() {
            return reconf("survivor list contains duplicate ranks".into());
        }
        let pairs: Vec<(usize, usize)> = order.iter().enumerate().map(|(n, &o)| (o, n)).collect();
        self.remap(order.len(), self.generation + 1, &pairs)
    }
}

impl Drop for LocalEndpoint {
    fn drop(&mut self) {
        // Graceful departure. Peers blocked on this member drain what it
        // already sent, then see `Disconnected` (leaving is not failing);
        // its inbound queues close so later sends to it fail the same way.
        let shared = &*self.shared;
        for peer in (0..shared.queues.len()).filter(|&p| p != self.slot) {
            shared.queues[self.slot][peer].close(false);
            shared.queues[peer][self.slot].close(true);
        }
        // Wake survivors waiting for this member at the resize gate.
        let _g = shared.gate.lock().unwrap_or_else(PoisonError::into_inner);
        shared.gate_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::ring_all_reduce;
    use crate::wire::{DType, WireBuf};
    use crate::ReduceOp;

    #[test]
    fn delivers_in_order_and_bit_exact() {
        let mut eps = LocalFabric::create(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        std::thread::scope(|s| {
            s.spawn(|| {
                a.send(1, vec![1.0, f32::NAN, -0.0].into()).unwrap();
                a.send(1, vec![2.0].into()).unwrap();
            });
            s.spawn(|| {
                let first = b.recv(0).unwrap().into_payload().to_f32_vec();
                assert_eq!(first[0].to_bits(), 1.0f32.to_bits());
                assert!(first[1].is_nan());
                assert_eq!(first[2].to_bits(), (-0.0f32).to_bits());
                assert_eq!(b.recv(0).unwrap(), vec![2.0]);
            });
        });
    }

    #[test]
    fn narrow_payloads_keep_their_dtype() {
        let eps = LocalFabric::create(2);
        let elems = [1.0f32, -2.5, 0.5, 1024.0];
        eps[0]
            .send(1, Message::new(WireBuf::encode(&elems, DType::Bf16)))
            .unwrap();
        let payload = eps[1].recv(0).unwrap().into_payload();
        assert_eq!(payload.dtype(), DType::Bf16);
        assert_eq!(payload.num_bytes(), 8);
        assert_eq!(payload.to_f32_vec(), elems);
    }

    #[test]
    fn send_to_self_and_out_of_range_are_invalid() {
        let eps = LocalFabric::create(2);
        assert!(matches!(
            eps[0].send(0, vec![].into()).unwrap_err(),
            CollectiveError::InvalidRank { rank: 0, .. }
        ));
        assert!(matches!(
            eps[0].send(5, vec![].into()).unwrap_err(),
            CollectiveError::InvalidRank { rank: 5, world: 2 }
        ));
    }

    #[test]
    fn off_fabric_rank_is_invalid_not_a_hang() {
        // A fabric covering ranks {1, 3} of a world of 4: rank 2 is real
        // but lives elsewhere, so a misrouted send must fail typed.
        let eps = LocalFabric::with_options(4, &[1, 3], FabricOptions::default());
        assert_eq!(eps[0].rank(), 1);
        assert!(eps[0].is_local(3));
        assert!(!eps[0].is_local(2));
        assert!(matches!(
            eps[0].send(2, vec![1.0].into()).unwrap_err(),
            CollectiveError::InvalidRank { rank: 2, world: 4 }
        ));
        std::thread::scope(|s| {
            s.spawn(|| eps[0].send(3, vec![5.0].into()).unwrap());
            s.spawn(|| assert_eq!(eps[1].recv(1).unwrap(), vec![5.0]));
        });
    }

    #[test]
    fn cross_pair_queues_are_independent() {
        let eps = LocalFabric::create(3);
        eps[0].send(2, vec![9.0].into()).unwrap();
        eps[0].send(1, vec![7.0].into()).unwrap();
        assert_eq!(eps[1].recv(0).unwrap(), vec![7.0]);
        assert_eq!(eps[2].recv(0).unwrap(), vec![9.0]);
    }

    #[test]
    fn recv_timeout_surfaces_instead_of_hanging() {
        let eps = LocalFabric::create(2);
        assert!(eps[0].set_recv_timeout(Some(Duration::from_millis(10))));
        assert_eq!(
            eps[0].recv(1).unwrap_err(),
            CollectiveError::Timeout {
                peer: 1,
                millis: 10
            }
        );
        // Clearing the deadline restores indefinite blocking; a queued
        // message is still delivered.
        assert!(eps[0].set_recv_timeout(None));
        eps[1].send(0, vec![4.0].into()).unwrap();
        assert_eq!(eps[0].recv(1).unwrap(), vec![4.0]);
    }

    #[test]
    fn dropped_peer_surfaces_as_disconnected_after_draining() {
        let mut eps = LocalFabric::create(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        // Messages sent before the drop must still be delivered.
        a.send(1, vec![42.0].into()).unwrap();
        drop(a);
        assert_eq!(b.recv(0).unwrap(), vec![42.0]);
        assert_eq!(
            b.recv(0).unwrap_err(),
            CollectiveError::Disconnected { peer: 0 }
        );
        assert_eq!(
            b.send(0, vec![1.0].into()).unwrap_err(),
            CollectiveError::Disconnected { peer: 0 }
        );
    }

    #[test]
    fn departure_wakes_a_blocked_receiver() {
        let mut eps = LocalFabric::create(2);
        let b = eps.pop().unwrap();
        let a = eps.pop().unwrap();
        let shared = Arc::clone(&b.shared);
        std::thread::scope(|s| {
            let waiter = s.spawn(|| b.recv(0));
            // Depart only once the receiver is parked on the queue.
            while !shared.queues[0][1].lock().waiting {
                std::thread::yield_now();
            }
            drop(a);
            assert_eq!(
                waiter.join().unwrap().unwrap_err(),
                CollectiveError::Disconnected { peer: 0 }
            );
        });
    }

    #[test]
    fn stale_generation_messages_are_rejected() {
        let mut eps = LocalFabric::create(2);
        // Rank 1 moves on to generation 4 by hand; rank 0 still sends at
        // generation 0, like a straggler from a previous incarnation.
        eps[1].generation = 4;
        eps[0].send(1, vec![9.0].into()).unwrap();
        assert_eq!(
            eps[1].recv(0).unwrap_err(),
            CollectiveError::StaleGeneration {
                peer: 0,
                expected: 4,
                actual: 0
            }
        );
    }

    #[test]
    fn pool_reuses_buffers() {
        let eps = LocalFabric::create(2);
        let mut buf = eps[0].take_buffer(16);
        buf.extend_from_slice(&[1, 2]);
        let cap = buf.capacity();
        let ptr = buf.as_ptr();
        eps[0].recycle_buffer(buf);
        let again = eps[0].take_buffer(8);
        assert!(again.is_empty());
        assert_eq!(again.capacity(), cap);
        assert_eq!(again.as_ptr(), ptr, "pool should hand back the allocation");
    }

    /// Runs `reconfigure(survivors)` on every endpoint concurrently.
    fn reconfigure_all(eps: &mut [LocalEndpoint], survivors: &[usize]) -> Vec<WorldChange> {
        std::thread::scope(|s| {
            let handles: Vec<_> = eps
                .iter_mut()
                .map(|ep| s.spawn(move || ep.reconfigure(Some(survivors)).unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    #[test]
    fn reconfigure_shrinks_past_a_dead_member_to_dense_ranks() {
        // Rank 2 dies with traffic still queued both ways between the
        // survivors and from itself. The survivors resize without it ever
        // reaching the gate, stale messages are drained, and the shrunk
        // world runs a correct collective.
        let mut eps = LocalFabric::create(4);
        let victim = eps.remove(2);
        eps[0].send(3, vec![66.6; 4].into()).unwrap();
        eps[2].send(0, vec![77.7; 4].into()).unwrap();
        victim.send(0, vec![88.8; 4].into()).unwrap();
        drop(victim);
        let changes = reconfigure_all(&mut eps, &[0, 1, 3]);
        assert_eq!(changes[2].old_rank, 3);
        for (i, (ep, change)) in eps.iter().zip(&changes).enumerate() {
            assert_eq!(change.new_rank, i);
            assert_eq!(ep.rank(), i);
            assert_eq!((change.old_world, change.new_world), (4, 3));
            assert_eq!(ep.world_size(), 3);
            assert_eq!((change.generation, ep.generation()), (1, 1));
        }
        std::thread::scope(|s| {
            for ep in &eps {
                s.spawn(move || {
                    let mut data = vec![ep.rank() as f32 + 1.0; 8];
                    ring_all_reduce(ep, &mut data, ReduceOp::Sum).unwrap();
                    assert_eq!(data, vec![6.0; 8]); // 1+2+3
                });
            }
        });
    }

    #[test]
    fn excluded_member_is_disconnected_after_a_shrink() {
        let mut eps = LocalFabric::create(3);
        let excluded = eps.remove(1);
        reconfigure_all(&mut eps, &[0, 2]);
        // The excluded endpoint still thinks it is rank 1 of 3; the
        // survivors neither listen to it nor send to it any more.
        assert_eq!(
            excluded.send(0, vec![1.0].into()).unwrap_err(),
            CollectiveError::Disconnected { peer: 0 }
        );
        excluded.set_recv_timeout(Some(Duration::from_secs(5)));
        assert_eq!(
            excluded.recv(2).unwrap_err(),
            CollectiveError::Disconnected { peer: 2 }
        );
    }

    #[test]
    fn remap_applies_non_monotonic_rank_maps() {
        // A tiered resize can hand co-located survivors new ranks that are
        // not ascending in old rank: old {1, 2} -> new {2, 0}.
        let mut eps = LocalFabric::with_options(4, &[1, 2], FabricOptions::default());
        let pairs = [(1usize, 2usize), (2, 0)];
        std::thread::scope(|s| {
            for ep in &mut eps {
                s.spawn(move || ep.remap(3, 1, &pairs).unwrap());
            }
        });
        assert_eq!((eps[0].rank(), eps[1].rank()), (2, 0));
        assert_eq!(eps[0].world_size(), 3);
        eps[0].send(0, vec![5.0].into()).unwrap();
        assert_eq!(eps[1].recv(2).unwrap(), vec![5.0]);
    }

    #[test]
    fn remap_refuses_a_generation_that_does_not_grow() {
        let mut eps = LocalFabric::create(2);
        let err = eps[0].remap(2, 0, &[(0, 0), (1, 1)]).unwrap_err();
        assert!(
            matches!(err, CollectiveError::Reconfigure { ref reason } if reason.contains("generation")),
            "{err}"
        );
    }

    #[test]
    fn reconfigure_rejects_bad_survivor_sets() {
        let mut eps = LocalFabric::create(3);
        let reason = |r: Result<WorldChange, CollectiveError>| match r.unwrap_err() {
            CollectiveError::Reconfigure { reason } => reason,
            e => panic!("expected Reconfigure, got {e}"),
        };
        assert!(reason(eps[0].reconfigure(None)).contains("discover"));
        assert!(reason(eps[0].reconfigure(Some(&[1, 2]))).contains("omits"));
        assert!(reason(eps[0].reconfigure(Some(&[0, 5]))).contains("not on this fabric"));
        assert!(reason(eps[0].reconfigure(Some(&[0, 1, 1]))).contains("duplicate"));
        // Validation failures leave the endpoint untouched.
        assert_eq!((eps[0].rank(), eps[0].world_size()), (0, 3));
    }

    #[test]
    fn gate_fails_fast_when_a_listed_survivor_departs() {
        let mut eps = LocalFabric::create(3);
        let late = eps.remove(2);
        let shared = Arc::clone(&late.shared);
        std::thread::scope(|s| {
            let (a, b) = eps.split_at_mut(1);
            let ha = s.spawn(|| a[0].reconfigure(Some(&[0, 1, 2])));
            let hb = s.spawn(|| b[0].reconfigure(Some(&[0, 1, 2])));
            // Depart only once both others wait at the gate.
            while shared.gate.lock().unwrap()[..2] != [1, 1] {
                std::thread::yield_now();
            }
            drop(late);
            for h in [ha, hb] {
                assert!(matches!(
                    h.join().unwrap().unwrap_err(),
                    CollectiveError::Reconfigure { ref reason } if reason.contains("left")
                ));
            }
        });
    }

    #[test]
    fn live_peers_tracks_departures() {
        let mut eps = LocalFabric::create(3);
        assert_eq!(eps[0].live_peers(), vec![1, 2]);
        drop(eps.remove(1));
        assert_eq!(eps[0].live_peers(), vec![2]);
    }
}
