//! Test-only helpers shared across modules.

use crate::fabric::{LocalEndpoint, LocalFabric};

/// Runs `f` on every rank of a `world`-sized local fabric, collecting
/// per-rank results in rank order.
pub(crate) fn run_world<F, R>(world: usize, f: F) -> Vec<R>
where
    F: Fn(LocalEndpoint) -> R + Sync,
    R: Send,
{
    let eps = LocalFabric::create(world);
    std::thread::scope(|s| {
        let handles: Vec<_> = eps.into_iter().map(|ep| s.spawn(|| f(ep))).collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}
