//! `ShmEndpoint` — the intra-node tier: the in-process [`LocalFabric`]
//! configured from a [`NetConfig`], plus a heartbeat thread.
//!
//! Co-located ranks are threads of one process (the deployment model of
//! `dear-launch --hosts`) and talk over the fabric's blocking, unbounded
//! per-pair queues, with its generation stamps, graceful departure and
//! survivor-gated in-place resize (see [`LocalFabric`]). This layer maps
//! the config onto the fabric — generation, receive deadline, the send
//! deadline as the resize-gate deadline, pool cap — and, with
//! [`NetConfig::heartbeat_interval`] set, runs one heartbeat thread per
//! endpoint, so a receiver blocked on a co-located peer whose beats stop
//! for the miss budget gets `Aborted`.
//!
//! A [`ShmFabric`] spans one process. The tiered transport
//! ([`crate::TieredEndpoint`]) composes one fabric per host with a TCP
//! mesh between hosts.

use std::sync::mpsc::{self, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::Duration;

use dear_collectives::{
    CollectiveError, FabricOptions, LocalEndpoint, LocalFabric, Message, Transport, WorldChange,
};

use crate::config::NetConfig;

/// Creates the shared-memory tier of co-located ranks; see the
/// [module docs](self).
///
/// # Examples
///
/// A whole world on one host, byte-identical to any other transport:
///
/// ```
/// use dear_net::ShmFabric;
/// use dear_collectives::{ring_all_reduce, ReduceOp, Transport};
///
/// let eps = ShmFabric::create(4);
/// std::thread::scope(|s| {
///     for ep in &eps {
///         s.spawn(move || {
///             let mut grad = vec![ep.rank() as f32 + 1.0; 64];
///             ring_all_reduce(ep, &mut grad, ReduceOp::Sum).unwrap();
///             assert_eq!(grad, vec![10.0; 64]);
///         });
///     }
/// });
/// ```
#[derive(Debug)]
pub struct ShmFabric;

impl ShmFabric {
    /// Creates a fabric spanning a whole `world` of co-located ranks, with
    /// loopback-friendly defaults (30 s receive and resize deadlines,
    /// failure detector on at 1 s × 5 misses, generation 0). Element `r`
    /// belongs to rank `r`.
    ///
    /// # Panics
    ///
    /// Panics if `world == 0`.
    #[must_use]
    pub fn create(world: usize) -> Vec<ShmEndpoint> {
        let cfg = NetConfig::new(world, 0, "127.0.0.1:0");
        let members: Vec<usize> = (0..world).collect();
        Self::with_config(&cfg, &members)
    }

    /// Creates a fabric for the co-located subset `members` (global ranks,
    /// strictly ascending) of a world of `cfg.world` ranks, honouring the
    /// config's generation, deadlines, pool cap and failure detector.
    /// Element `i` belongs to global rank `members[i]`.
    ///
    /// Endpoints can only reach co-located peers; sends to off-host ranks
    /// return `InvalidRank` — compose with a TCP mesh via
    /// [`crate::TieredEndpoint`] for the full world.
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty, unsorted, or lists a rank `>=
    /// cfg.world`.
    #[must_use]
    pub fn with_config(cfg: &NetConfig, members: &[usize]) -> Vec<ShmEndpoint> {
        let opts = FabricOptions {
            generation: cfg.generation,
            gate_timeout: cfg.send_timeout,
            heartbeat: cfg
                .heartbeat_interval
                .map(|interval| (interval, cfg.heartbeat_miss_budget)),
            pool_max_buf_bytes: cfg.pool_max_buf_bytes,
        };
        LocalFabric::with_options(cfg.world, members, opts)
            .into_iter()
            .map(|inner| {
                inner.set_recv_timeout(cfg.recv_timeout);
                let heartbeat = cfg.heartbeat_interval.map(|interval| {
                    let beat = inner.beat_fn();
                    let period = interval.min(Duration::from_millis(200));
                    let (stop, stopped) = mpsc::channel::<()>();
                    // Beats until the sender drops (`Disconnected`).
                    let thread = std::thread::spawn(move || loop {
                        beat();
                        if stopped.recv_timeout(period) != Err(RecvTimeoutError::Timeout) {
                            break;
                        }
                    });
                    (stop, thread)
                });
                ShmEndpoint { inner, heartbeat }
            })
            .collect()
    }
}

/// One co-located rank's endpoint of a [`ShmFabric`]: a [`LocalEndpoint`]
/// plus its heartbeat thread (and the sender whose drop stops it).
#[derive(Debug)]
pub struct ShmEndpoint {
    inner: LocalEndpoint,
    heartbeat: Option<(mpsc::Sender<()>, JoinHandle<()>)>,
}

impl ShmEndpoint {
    /// See [`LocalEndpoint::generation`].
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.inner.generation()
    }

    /// See [`LocalEndpoint::is_local`]: whether `peer` is co-located.
    #[must_use]
    pub fn is_local(&self, peer: usize) -> bool {
        self.inner.is_local(peer)
    }

    /// See [`LocalEndpoint::live_peers`].
    #[must_use]
    pub fn live_peers(&self) -> Vec<usize> {
        self.inner.live_peers()
    }

    /// See [`LocalEndpoint::remap`]; a tiered resize drives it from the
    /// TCP rendezvous' WELCOME tables.
    ///
    /// # Errors
    ///
    /// As [`LocalEndpoint::remap`].
    pub fn remap(
        &mut self,
        new_world: usize,
        new_generation: u64,
        pairs: &[(usize, usize)],
    ) -> Result<WorldChange, CollectiveError> {
        self.inner.remap(new_world, new_generation, pairs)
    }

    /// Stops this endpoint's heartbeat thread **without** marking it
    /// departed, so to its peers it looks wedged, like a thread stuck in a
    /// syscall. Test hook for the failure detector.
    #[doc(hidden)]
    pub fn stop_heartbeat(&mut self) {
        if let Some((stop, thread)) = self.heartbeat.take() {
            drop(stop);
            let _ = thread.join();
        }
    }
}

impl Transport for ShmEndpoint {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn world_size(&self) -> usize {
        self.inner.world_size()
    }

    fn send(&self, to: usize, msg: Message) -> Result<(), CollectiveError> {
        self.inner.send(to, msg)
    }

    fn recv(&self, from: usize) -> Result<Message, CollectiveError> {
        self.inner.recv(from)
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

    /// See the [`LocalEndpoint`] implementation; tiered endpoints use
    /// [`ShmEndpoint::remap`] instead.
    fn reconfigure(&mut self, survivors: Option<&[usize]>) -> Result<WorldChange, CollectiveError> {
        self.inner.reconfigure(survivors)
    }
}

impl Drop for ShmEndpoint {
    fn drop(&mut self) {
        // Stop beating before `inner` departs.
        self.stop_heartbeat();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn detector_cfg(world: usize) -> NetConfig {
        NetConfig::new(world, 0, "127.0.0.1:0")
            .with_recv_timeout(Some(Duration::from_secs(5)))
            .with_heartbeat(Some(Duration::from_millis(20)), 3)
    }

    #[test]
    fn config_sets_generation_membership_and_deadline() {
        let cfg = NetConfig::new(4, 0, "127.0.0.1:0")
            .with_generation(3)
            .with_recv_timeout(Some(Duration::from_millis(20)));
        let eps = ShmFabric::with_config(&cfg, &[1, 3]);
        assert_eq!((eps[0].rank(), eps[0].world_size()), (1, 4));
        assert_eq!(eps[1].generation(), 3);
        assert!(eps[0].is_local(3) && !eps[0].is_local(2));
        assert!(matches!(
            eps[0].send(2, vec![1.0].into()).unwrap_err(),
            CollectiveError::InvalidRank { rank: 2, world: 4 }
        ));
        assert!(matches!(
            eps[0].recv(3).unwrap_err(),
            CollectiveError::Timeout { peer: 3, .. }
        ));
    }

    #[test]
    fn heartbeat_keeps_a_silent_peer_alive() {
        // Rank 0 sends nothing but its heartbeat thread keeps beating, so
        // a receiver waits out its deadline instead of declaring it dead.
        let cfg = detector_cfg(2).with_recv_timeout(Some(Duration::from_millis(300)));
        let eps = ShmFabric::with_config(&cfg, &[0, 1]);
        assert!(matches!(
            eps[1].recv(0).unwrap_err(),
            CollectiveError::Timeout { peer: 0, .. }
        ));
    }

    #[test]
    fn wedged_peer_is_declared_dead_by_the_failure_detector() {
        let mut eps = ShmFabric::with_config(&detector_cfg(2), &[0, 1]);
        let b = eps.pop().unwrap();
        let mut a = eps.pop().unwrap();
        // Rank 0 wedges: heartbeats stop but the endpoint is not dropped.
        a.stop_heartbeat();
        let start = Instant::now();
        assert_eq!(b.recv(0).unwrap_err(), CollectiveError::Aborted { peer: 0 });
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "detector took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn pool_capacity_decays_above_the_configured_cap() {
        let cfg = NetConfig::new(2, 0, "127.0.0.1:0").with_pool_max_buf_bytes(1024);
        let eps = ShmFabric::with_config(&cfg, &[0, 1]);
        let mut big = eps[0].take_buffer(32 * 1024);
        big.resize(32 * 1024, 0);
        eps[0].recycle_buffer(big);
        let retained = eps[0].take_buffer(0);
        assert!(
            retained.capacity() <= 1024,
            "shm pool retained {} bytes past the 1024-byte cap",
            retained.capacity()
        );
    }
}
