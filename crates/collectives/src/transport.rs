//! Point-to-point transports that collective algorithms run on.
//!
//! The paper's system uses NCCL over physical NICs; here the substitute is
//! the in-process [`LocalFabric`](crate::LocalFabric) — every worker is an
//! OS thread, and messages travel over blocking, unbounded queues.
//! [`DelayFabric`] additionally injects α-β wall-clock delays so that real
//! runs exhibit network-like timing.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::cost::CostModel;
use crate::error::CollectiveError;
use crate::wire::WireBuf;

/// A payload travelling between ranks: a dtype-tagged byte buffer
/// ([`WireBuf`]), optionally stamped with the wall-clock instant at which
/// the simulated network finishes delivering it (set by [`DelayFabric`] on
/// send, honoured by [`DelayFabric`] on receive).
///
/// Construct from a [`WireBuf`] (or from a `Vec<f32>`, which encodes as
/// bit-exact little-endian `f32`); call [`Message::into_payload`] to reclaim
/// the payload (and hand its bytes back to the transport's buffer pool via
/// [`Transport::recycle_buffer`]).
///
/// # Wire safety
///
/// The `deliver_at` stamp is a **local-fabric-only** concern: it is an
/// in-process [`Instant`], meaningless in another process and impossible to
/// serialize. Transports that put messages on a real wire (e.g. `dear-net`'s
/// TCP endpoint) must consume messages through
/// [`Message::into_wire_payload`], which returns
/// [`CollectiveError::LocalStampOnWire`] when a stamp is present — so timing
/// semantics are never silently dropped at a serialization boundary.
/// Consequently [`DelayFabric`] (the only stamper) must only ever wrap
/// in-process transports, never a wire transport.
#[derive(Debug, Clone, PartialEq)]
pub struct Message {
    payload: WireBuf,
    deliver_at: Option<Instant>,
}

impl Message {
    /// Wraps a payload with no delivery stamp.
    #[must_use]
    pub fn new(payload: WireBuf) -> Self {
        Message {
            payload,
            deliver_at: None,
        }
    }

    /// The payload carried by this message.
    #[must_use]
    pub fn payload(&self) -> &WireBuf {
        &self.payload
    }

    /// Element count of the payload.
    #[must_use]
    pub fn len(&self) -> usize {
        self.payload.len_elems()
    }

    /// Whether the payload is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }

    /// Bytes the payload occupies on the wire — the dtype-dependent
    /// quantity a bandwidth model charges for.
    #[must_use]
    pub fn wire_bytes(&self) -> usize {
        self.payload.num_bytes()
    }

    /// Consumes the message, returning the payload for reuse.
    #[must_use]
    pub fn into_payload(self) -> WireBuf {
        self.payload
    }

    /// Consumes the message for serialization onto a real wire, returning
    /// the payload. The `deliver_at` stamp cannot cross a process boundary
    /// (it is an in-process [`Instant`]); a stamped message reaching a wire
    /// transport is a composition bug (a [`DelayFabric`] wrapping a wire
    /// transport), surfaced as a typed error so release builds cannot
    /// silently ship fabric-local metadata.
    ///
    /// # Errors
    ///
    /// Returns [`CollectiveError::LocalStampOnWire`] if a delivery stamp is
    /// present.
    pub fn into_wire_payload(self) -> Result<WireBuf, CollectiveError> {
        if self.deliver_at.is_some() {
            return Err(CollectiveError::LocalStampOnWire);
        }
        Ok(self.payload)
    }

    /// The simulated delivery instant, if a delaying transport stamped one.
    #[must_use]
    pub fn deliver_at(&self) -> Option<Instant> {
        self.deliver_at
    }

    /// Stamps the delivery instant (keeping the later of two stamps, so
    /// nested delaying transports compose as consecutive hops).
    #[must_use]
    pub fn with_deliver_at(mut self, at: Instant) -> Self {
        self.deliver_at = Some(match self.deliver_at {
            Some(prev) => prev.max(at),
            None => at,
        });
        self
    }

    /// Clears the delivery stamp (after the wait has been served).
    #[must_use]
    pub fn without_deliver_at(mut self) -> Self {
        self.deliver_at = None;
        self
    }
}

impl From<WireBuf> for Message {
    fn from(payload: WireBuf) -> Self {
        Message::new(payload)
    }
}

impl From<Vec<f32>> for Message {
    fn from(payload: Vec<f32>) -> Self {
        Message::new(WireBuf::from_f32(&payload))
    }
}

impl PartialEq<Vec<f32>> for Message {
    fn eq(&self, other: &Vec<f32>) -> bool {
        self == other.as_slice()
    }
}

impl PartialEq<[f32]> for Message {
    fn eq(&self, other: &[f32]) -> bool {
        self.payload.dtype().is_numeric()
            && self.payload.len_elems() == other.len()
            && self.payload.to_f32_vec() == other
    }
}

/// What an in-place world resize did to this endpoint: the rank/world pair
/// it held before, the dense rank it was reassigned, and the generation the
/// resized world runs at. Returned by [`Transport::reconfigure`] so callers
/// (e.g. a comm thread re-deriving shard ownership) can rebuild any state
/// keyed on rank or world size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorldChange {
    /// The rank this endpoint held before the resize.
    pub old_rank: usize,
    /// The world size before the resize.
    pub old_world: usize,
    /// The dense rank assigned in the resized world.
    pub new_rank: usize,
    /// The resized world's size.
    pub new_world: usize,
    /// The generation the resized world runs at (bumped past the old
    /// world's, so stragglers from the old incarnation are rejected).
    pub generation: u64,
}

/// Point-to-point message transport between the workers of one job.
///
/// Implementations must be usable from one thread per rank; `send` must not
/// block indefinitely when the peer has not yet posted a receive (the
/// in-process fabric buffers without bound, mirroring eager-protocol MPI).
pub trait Transport {
    /// This endpoint's rank in `0..world_size()`.
    fn rank(&self) -> usize;

    /// Number of ranks in the job.
    fn world_size(&self) -> usize;

    /// Sends `msg` to `to`.
    ///
    /// # Errors
    ///
    /// Returns [`CollectiveError::InvalidRank`] if `to` is out of range or
    /// equals this rank, and [`CollectiveError::Disconnected`] if the peer
    /// has hung up.
    fn send(&self, to: usize, msg: Message) -> Result<(), CollectiveError>;

    /// Receives the next message from `from`, blocking until it arrives.
    ///
    /// # Errors
    ///
    /// Returns [`CollectiveError::InvalidRank`] if `from` is out of range or
    /// equals this rank, [`CollectiveError::Disconnected`] if the peer has
    /// hung up, and [`CollectiveError::Timeout`] if a receive deadline is
    /// configured (see [`Transport::set_recv_timeout`]) and expires first.
    fn recv(&self, from: usize) -> Result<Message, CollectiveError>;

    /// Sets a deadline for subsequent [`Transport::recv`] calls: when no
    /// message arrives within `timeout`, `recv` returns
    /// [`CollectiveError::Timeout`] instead of blocking forever — so a
    /// wedged collective (peer crashed, deadlock) fails fast instead of
    /// hanging the job. `None` restores indefinite blocking.
    ///
    /// Returns `true` if the transport honours the knob. The default does
    /// nothing and returns `false`; decorators forward to their inner
    /// transport.
    fn set_recv_timeout(&self, timeout: Option<Duration>) -> bool {
        let _ = timeout;
        false
    }

    /// Takes a reusable wire-byte buffer of at least `capacity_bytes` from
    /// the transport's pool (empty, ready for encoding into).
    ///
    /// The default allocates; pooling transports override this together
    /// with [`Transport::recycle_buffer`] so that steady-state collectives
    /// run allocation-free.
    fn take_buffer(&self, capacity_bytes: usize) -> Vec<u8> {
        Vec::with_capacity(capacity_bytes)
    }

    /// Returns a byte buffer (typically the payload bytes of a received
    /// [`Message`], via [`WireBuf::into_bytes`]) to the transport's pool
    /// for reuse by a later [`Transport::take_buffer`].
    ///
    /// The default drops it.
    fn recycle_buffer(&self, buf: Vec<u8>) {
        drop(buf);
    }

    /// Reconfigures this endpoint **in place** for a resized world — after
    /// peer loss (shrink) or an admitted late joiner (grow) — and returns
    /// the [`WorldChange`] describing the rank/world transition.
    ///
    /// `survivors` optionally names the global (old-world) ranks that remain,
    /// in any order but including this endpoint's own rank; `None` asks the
    /// transport to discover the survivor set itself (e.g. `dear-net`'s TCP
    /// endpoint re-runs rendezvous at a bumped generation and takes whoever
    /// shows up within the resize window). After a successful call,
    /// [`Transport::rank`] and [`Transport::world_size`] report the new
    /// dense assignment and every neighbor-table-deriving algorithm (ring,
    /// RHD, tree, hierarchical) works unchanged on the resized world.
    ///
    /// # Errors
    ///
    /// Returns [`CollectiveError::Reconfigure`] when the transport does not
    /// support in-place resizing (the default), when the survivor set is
    /// invalid, or when the resize rendezvous fails (no quorum, timeout) —
    /// in which case the caller should fall back to a supervised restart.
    fn reconfigure(&mut self, survivors: Option<&[usize]>) -> Result<WorldChange, CollectiveError> {
        let _ = survivors;
        Err(CollectiveError::Reconfigure {
            reason: "this transport does not support in-place resize".to_string(),
        })
    }

    /// Validates a peer rank, shared by implementations.
    fn check_peer(&self, peer: usize) -> Result<(), CollectiveError> {
        if peer >= self.world_size() || peer == self.rank() {
            Err(CollectiveError::InvalidRank {
                rank: peer,
                world: self.world_size(),
            })
        } else {
            Ok(())
        }
    }
}

/// Buffers a [`BufferPool`] keeps; bounds pool memory at roughly
/// `POOL_CAP × largest-segment` bytes.
const POOL_CAP: usize = 64;

/// The reusable wire-byte pool behind [`Transport::take_buffer`] and
/// [`Transport::recycle_buffer`]. Ring rounds are symmetric (each received
/// payload is recycled and each send takes one out), so the pool reaches a
/// steady state after the first round and sends stop allocating. Buffers
/// over the pool's per-buffer cap are shrunk on return, so retained memory
/// decays back to the cap after an outsized collective.
pub struct BufferPool {
    bufs: Mutex<Vec<Vec<u8>>>,
    max_buf_bytes: usize,
}

impl BufferPool {
    /// Default per-buffer capacity cap: holds any sensible segment, while
    /// a one-off giant collective does not pin its high-water allocation
    /// for the rest of the run.
    pub const DEFAULT_MAX_BUF_BYTES: usize = 4 << 20;

    /// An empty pool that keeps buffers of at most `max_buf_bytes`
    /// capacity (at least 1).
    #[must_use]
    pub fn new(max_buf_bytes: usize) -> BufferPool {
        BufferPool {
            bufs: Mutex::new(Vec::new()),
            max_buf_bytes: max_buf_bytes.max(1),
        }
    }

    /// An empty buffer of at least `capacity_bytes`, reused when possible.
    #[must_use]
    pub fn take(&self, capacity_bytes: usize) -> Vec<u8> {
        let reused = self.bufs.lock().expect("buffer pool poisoned").pop();
        let mut buf = reused.unwrap_or_default();
        buf.clear();
        buf.reserve(capacity_bytes);
        buf
    }

    /// Returns `buf` to the pool, shrinking it to the cap first.
    pub fn recycle(&self, mut buf: Vec<u8>) {
        if buf.capacity() == 0 {
            return;
        }
        if buf.capacity() > self.max_buf_bytes {
            buf.clear();
            buf.shrink_to(self.max_buf_bytes);
        }
        let mut pool = self.bufs.lock().expect("buffer pool poisoned");
        if pool.len() < POOL_CAP {
            pool.push(buf);
        }
    }
}

/// A transport decorator that injects α-β wall-clock delays, so that real
/// threaded runs show network-like behaviour (startup latency per message
/// plus per-byte serialization time).
///
/// Delays are modelled with a **per-destination link clock** and a
/// delivery timestamp instead of a sender-side sleep. `send` computes when
/// the link finishes serializing the message — `max(now, link busy-until) +
/// p2p(bytes)` — stamps that instant on the [`Message`], advances the link
/// clock, and forwards immediately without blocking. The **receiver's**
/// `recv` then sleeps until the stamp before handing the payload over.
///
/// `bytes` is the payload's **actual wire size**
/// ([`Message::wire_bytes`]), so a bf16 payload is charged half the β-cost
/// of the same element count in f32 — mixed-precision runs see their wire
/// saving in simulated time, exactly as the [`CostModel`] predicts.
///
/// The total per-hop cost is unchanged (every ring round still pays one
/// `p2p` delay, as in the [`CostModel`]), but because the sending thread is
/// never blocked, segment `k` of a pipelined collective can be serialized
/// onto the link while the receiver is still reducing segment `k−1` — the
/// overlap that NCCL-style segmentation exploits. Both sides of a link must
/// be wrapped for the delay to be observed.
#[derive(Debug)]
pub struct DelayFabric<T> {
    inner: T,
    model: CostModel,
    /// Scales injected delays (1.0 = real scale). Tests use small factors.
    time_scale: f64,
    /// `busy_until[to]`: when the outgoing link to `to` finishes serializing
    /// the last message queued on it.
    busy_until: Mutex<Vec<Option<Instant>>>,
}

impl<T: Transport> DelayFabric<T> {
    /// Wraps `inner`, delaying each send per `model`.
    #[must_use]
    pub fn new(inner: T, model: CostModel) -> Self {
        Self::with_scale(inner, model, 1.0)
    }

    /// Wraps `inner` with delays scaled by `time_scale` (useful to keep
    /// tests fast while preserving relative timings).
    #[must_use]
    pub fn with_scale(inner: T, model: CostModel, time_scale: f64) -> Self {
        let world = inner.world_size();
        DelayFabric {
            inner,
            model,
            time_scale,
            busy_until: Mutex::new(vec![None; world]),
        }
    }

    /// The underlying transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Consumes the decorator, returning the wrapped transport.
    pub fn into_inner(self) -> T {
        self.inner
    }
}

impl<T: Transport> Transport for DelayFabric<T> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn world_size(&self) -> usize {
        self.inner.world_size()
    }

    fn send(&self, to: usize, msg: Message) -> Result<(), CollectiveError> {
        self.check_peer(to)?;
        // Charge the link for the actual (dtype-dependent) wire bytes.
        let bytes = msg.wire_bytes() as u64;
        let wire = self.model.p2p(bytes).as_secs_f64() * self.time_scale;
        let wire = std::time::Duration::from_secs_f64(wire.max(0.0));
        let now = Instant::now();
        let ready = {
            let mut clocks = self.busy_until.lock().expect("link clock poisoned");
            let start = match clocks[to] {
                Some(t) if t > now => t,
                _ => now,
            };
            let ready = start + wire;
            clocks[to] = Some(ready);
            ready
        };
        self.inner.send(to, msg.with_deliver_at(ready))
    }

    fn recv(&self, from: usize) -> Result<Message, CollectiveError> {
        let msg = self.inner.recv(from)?;
        if let Some(at) = msg.deliver_at() {
            let now = Instant::now();
            if at > now {
                std::thread::sleep(at - now);
            }
        }
        Ok(msg.without_deliver_at())
    }

    fn set_recv_timeout(&self, timeout: Option<Duration>) -> bool {
        self.inner.set_recv_timeout(timeout)
    }

    fn take_buffer(&self, capacity_bytes: usize) -> Vec<u8> {
        self.inner.take_buffer(capacity_bytes)
    }

    fn recycle_buffer(&self, buf: Vec<u8>) {
        self.inner.recycle_buffer(buf);
    }

    /// Forwards to the wrapped transport, then resets the per-link clocks
    /// for the resized world (old busy-until stamps belong to links that no
    /// longer exist under the dense renumbering).
    fn reconfigure(&mut self, survivors: Option<&[usize]>) -> Result<WorldChange, CollectiveError> {
        let change = self.inner.reconfigure(survivors)?;
        *self.busy_until.lock().expect("link clock poisoned") = vec![None; change.new_world];
        Ok(change)
    }
}

/// A view of a transport restricted to a subgroup of ranks, used by
/// hierarchical algorithms (e.g. intra-node then inter-node rings).
///
/// Group members are given by their **global** ranks; the view renumbers
/// them densely `0..group_len` in the order supplied.
#[derive(Debug)]
pub struct GroupTransport<'a, T> {
    inner: &'a T,
    /// Global ranks of the group members, in group order.
    members: Arc<Vec<usize>>,
    /// This endpoint's rank within the group.
    group_rank: usize,
}

impl<'a, T: Transport> GroupTransport<'a, T> {
    /// Restricts `inner` to `members` (global ranks, deduplicated order).
    ///
    /// Returns `None` if `inner`'s rank is not a member.
    ///
    /// # Panics
    ///
    /// Panics if `members` contains an out-of-range or duplicate rank.
    #[must_use]
    pub fn new(inner: &'a T, members: Arc<Vec<usize>>) -> Option<Self> {
        let world = inner.world_size();
        let mut seen = vec![false; world];
        for &m in members.iter() {
            assert!(m < world, "group member {m} out of range (world {world})");
            assert!(!seen[m], "duplicate group member {m}");
            seen[m] = true;
        }
        let group_rank = members.iter().position(|&m| m == inner.rank())?;
        Some(GroupTransport {
            inner,
            members,
            group_rank,
        })
    }
}

impl<T: Transport> Transport for GroupTransport<'_, T> {
    fn rank(&self) -> usize {
        self.group_rank
    }

    fn world_size(&self) -> usize {
        self.members.len()
    }

    fn send(&self, to: usize, msg: Message) -> Result<(), CollectiveError> {
        self.check_peer(to)?;
        self.inner.send(self.members[to], msg)
    }

    fn recv(&self, from: usize) -> Result<Message, CollectiveError> {
        self.check_peer(from)?;
        self.inner.recv(self.members[from])
    }

    fn set_recv_timeout(&self, timeout: Option<Duration>) -> bool {
        self.inner.set_recv_timeout(timeout)
    }

    fn take_buffer(&self, capacity_bytes: usize) -> Vec<u8> {
        self.inner.take_buffer(capacity_bytes)
    }

    fn recycle_buffer(&self, buf: Vec<u8>) {
        self.inner.recycle_buffer(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::LocalFabric;
    use crate::wire::DType;

    #[test]
    fn pool_capacity_decays_after_an_outsized_collective() {
        let pool = BufferPool::new(1024);
        pool.recycle(Vec::with_capacity(512));
        let high_water = |p: &BufferPool| {
            let bufs = p.bufs.lock().unwrap();
            bufs.iter().map(Vec::capacity).max().unwrap_or(0)
        };
        assert_eq!(high_water(&pool), 512);
        // One giant collective must not pin its high-water allocation in
        // the pool for the rest of the run.
        let mut big = pool.take(64 * 1024);
        big.resize(64 * 1024, 0);
        pool.recycle(big);
        assert!(
            high_water(&pool) <= 1024,
            "pool retained {} bytes past the 1024-byte cap",
            high_water(&pool)
        );
        // A later large request still gets what it asks for.
        assert!(pool.take(64 * 1024).capacity() >= 64 * 1024);
    }

    #[test]
    fn delay_fabric_preserves_payloads_and_slows_delivery() {
        // Delay is observed at the receiver (deliver-at stamp), so both
        // sides of the link are wrapped, as in a real cluster.
        let mut eps = LocalFabric::create(2);
        let model = CostModel::new(2_000_000.0, 0.0, 0.0);
        let b = DelayFabric::new(eps.pop().unwrap(), model);
        let a = DelayFabric::new(eps.pop().unwrap(), model);
        let t0 = std::time::Instant::now();
        std::thread::scope(|s| {
            s.spawn(|| a.send(1, vec![3.0].into()).unwrap());
            s.spawn(|| assert_eq!(b.recv(0).unwrap(), vec![3.0]));
        });
        assert!(t0.elapsed() >= std::time::Duration::from_millis(2));
        assert_eq!(a.rank(), 0);
        assert_eq!(a.world_size(), 2);
    }

    #[test]
    fn delay_fabric_send_does_not_block_the_sender() {
        // The sender queues both messages immediately; the link clock
        // serializes them so the second arrives one wire-time later.
        let mut eps = LocalFabric::create(2);
        let model = CostModel::new(2_000_000.0, 0.0, 0.0); // 2 ms per message
        let b = DelayFabric::new(eps.pop().unwrap(), model);
        let a = DelayFabric::new(eps.pop().unwrap(), model);
        let t0 = std::time::Instant::now();
        a.send(1, vec![1.0].into()).unwrap();
        a.send(1, vec![2.0].into()).unwrap();
        let sender_elapsed = t0.elapsed();
        assert!(
            sender_elapsed < std::time::Duration::from_millis(2),
            "sender blocked for {sender_elapsed:?}"
        );
        assert_eq!(b.recv(0).unwrap(), vec![1.0]);
        assert_eq!(b.recv(0).unwrap(), vec![2.0]);
        // Two serialized messages: at least 2 × 2 ms of link time.
        assert!(t0.elapsed() >= std::time::Duration::from_millis(4));
    }

    #[test]
    fn delay_fabric_charges_actual_wire_bytes() {
        // Pure-β model: a bf16 payload must be delivered in half the link
        // time of the same element count in f32.
        let mut eps = LocalFabric::create(2);
        let beta_ns_per_byte = 10_000.0; // 10 µs/byte => 4 elems: f32 160 µs, bf16 80 µs
        let model = CostModel::new(0.0, beta_ns_per_byte, 0.0);
        let b = DelayFabric::new(eps.pop().unwrap(), model);
        let a = DelayFabric::new(eps.pop().unwrap(), model);
        let data = [1.0f32, 2.0, 3.0, 4.0];
        let t0 = Instant::now();
        a.send(1, Message::new(WireBuf::encode(&data, DType::Bf16)))
            .unwrap();
        let msg = b.recv(0).unwrap();
        let bf16_elapsed = t0.elapsed();
        assert_eq!(msg.payload().dtype(), DType::Bf16);
        assert_eq!(msg.wire_bytes(), 8);
        let t1 = Instant::now();
        a.send(1, Message::new(WireBuf::encode(&data, DType::F32)))
            .unwrap();
        let _ = b.recv(0).unwrap();
        let f32_elapsed = t1.elapsed();
        assert!(
            bf16_elapsed >= Duration::from_micros(80),
            "bf16 delivered in {bf16_elapsed:?}"
        );
        assert!(
            f32_elapsed >= Duration::from_micros(160),
            "f32 delivered in {f32_elapsed:?}"
        );
    }

    #[test]
    fn recv_timeout_forwards_through_decorators() {
        let mut eps = LocalFabric::create(2);
        let _b = eps.pop().unwrap();
        let a = DelayFabric::new(eps.pop().unwrap(), CostModel::new(0.0, 0.0, 0.0));
        assert!(a.set_recv_timeout(Some(Duration::from_millis(5))));
        assert!(matches!(
            a.recv(1).unwrap_err(),
            CollectiveError::Timeout { peer: 1, .. }
        ));
        let eps = LocalFabric::create(3);
        let members = Arc::new(vec![0usize, 2]);
        let g = GroupTransport::new(&eps[0], members).unwrap();
        assert!(g.set_recv_timeout(Some(Duration::from_millis(5))));
        // Group rank 1 is global rank 2; the timeout set through the view
        // applies to the underlying endpoint.
        assert!(matches!(
            g.recv(1).unwrap_err(),
            CollectiveError::Timeout { peer: 2, .. }
        ));
    }

    #[test]
    fn wire_payload_roundtrip_without_stamp() {
        let msg = Message::from(vec![1.0, 2.0]);
        let payload = msg.into_wire_payload().unwrap();
        assert_eq!(payload.to_f32_vec(), vec![1.0, 2.0]);
    }

    #[test]
    fn wire_payload_rejects_stamped_message_as_typed_error() {
        // A stamped message at a serialization boundary is a composition
        // bug; release builds must refuse it, not silently drop the stamp.
        let msg = Message::from(vec![1.0]).with_deliver_at(Instant::now());
        let err = msg.into_wire_payload().unwrap_err();
        assert_eq!(err, CollectiveError::LocalStampOnWire);
    }

    #[test]
    fn group_transport_renumbers_ranks() {
        let eps = LocalFabric::create(4);
        let members = Arc::new(vec![1usize, 3]);
        let g1 = GroupTransport::new(&eps[1], Arc::clone(&members)).unwrap();
        let g3 = GroupTransport::new(&eps[3], Arc::clone(&members)).unwrap();
        assert_eq!(g1.rank(), 0);
        assert_eq!(g3.rank(), 1);
        assert_eq!(g1.world_size(), 2);
        std::thread::scope(|s| {
            s.spawn(|| g1.send(1, vec![5.0].into()).unwrap());
            s.spawn(|| assert_eq!(g3.recv(0).unwrap(), vec![5.0]));
        });
        // Non-member gets None.
        assert!(GroupTransport::new(&eps[0], members).is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate group member")]
    fn group_transport_rejects_duplicates() {
        let eps = LocalFabric::create(2);
        let _ = GroupTransport::new(&eps[0], Arc::new(vec![0, 0]));
    }
}
