//! Live migration and the load-driven rebalancer (DESIGN.md §13).
//!
//! [`ParcRuntime::migrate_uri`] sends `__migrate(dst)` through the
//! object's own mailbox; `factory.rs`'s `MigratableHost` re-creates the
//! object on `dst` and leaves a forwarder behind. The runtime then
//! relocates the object's entry in the location index.
//! [`ParcRuntime::rebalance_once`] turns one poll sweep into migrations
//! off the hottest node, picked from the location index.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parc_remoting::channel::{ChannelProvider, RemoteObject};
use parc_serial::Value;

use crate::error::ParcError;
use crate::factory::MIGRATE_METHOD;
use crate::nodes::node_name;
use crate::po::Po;
use crate::runtime::ParcRuntime;

impl ParcRuntime {
    /// Live-migrates `po`'s implementation object to node `dst` and
    /// repoints the proxy at its new home. Callers still holding older
    /// proxies keep working through the forwarding entry left at the old
    /// address and repoint themselves on their next synchronous call.
    ///
    /// # Errors
    ///
    /// [`ParcError::Config`] for a local (agglomerated) object, a bad node
    /// index, or a dead destination; remoting failures — all of which
    /// leave the object intact at the source.
    pub fn migrate(&self, po: &Po, dst: usize) -> Result<String, ParcError> {
        let uri = po.uri().ok_or(ParcError::Config {
            detail: "cannot migrate a local (agglomerated) object".into(),
        })?;
        let new_uri = self.migrate_uri(&uri, dst)?;
        po.repoint(&new_uri);
        Ok(new_uri)
    }

    /// Live-migrates the object at `uri` to node `dst` and returns its new
    /// URI. The move travels through the object's own mailbox (the one
    /// in-flight-call guarantee is the quiesce point), so per-object FIFO
    /// order is preserved: calls queued behind the migration drain through
    /// the forwarding entry in arrival order.
    ///
    /// # Errors
    ///
    /// Bad or dead destination node; remoting failures. A failed migration
    /// aborts cleanly with the object still serving at the source.
    pub fn migrate_uri(&self, uri: &str, dst: usize) -> Result<String, ParcError> {
        self.nodes.check_node(dst)?;
        if !self.nodes.is_alive(dst) {
            return Err(ParcError::Config { detail: format!("node {dst} is dead") });
        }
        parc_obs::counter(parc_obs::kinds::MIGRATION_STARTED).incr();
        let started = Instant::now();
        let result = (|| -> Result<String, ParcError> {
            let _span = parc_obs::Span::enter(parc_obs::kinds::MIGRATION_MOVE);
            let parsed: parc_remoting::ObjectUri = uri.parse()?;
            let chan = self.network().open(&parsed)?;
            let remote = RemoteObject::new(chan, parsed.object());
            remote
                .call(MIGRATE_METHOD, vec![Value::Str(node_name(dst))])?
                .as_str()
                .map(str::to_string)
                .ok_or(ParcError::Skeleton { detail: "migration returned a non-string".into() })
        })();
        match result {
            Ok(new_uri) => {
                self.directory().relocate(uri, new_uri.clone(), dst);
                let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
                parc_obs::histogram(parc_obs::kinds::MIGRATION_LATENCY).record(micros);
                // `event` would bump this counter a second time when
                // recording is on; the telemetry snapshot and the verify
                // gate read it as an exact migration count,
                // so increment once and let the migration.move span
                // carry the trace record.
                parc_obs::counter(parc_obs::kinds::MIGRATION_COMPLETED).incr();
                Ok(new_uri)
            }
            Err(e) => {
                parc_obs::counter(parc_obs::kinds::MIGRATION_ABORTED).incr();
                Err(e)
            }
        }
    }

    /// Runs one rebalancer round: polls every node's telemetry and migrates
    /// up to [`RebalanceConfig::max_migrations_per_round`] objects off the
    /// hottest node when it exceeds `high_ratio ×` the mean load. Returns
    /// how many objects moved. Failed migrations abort cleanly and count
    /// as zero.
    pub fn rebalance_once(&self, cfg: &RebalanceConfig) -> usize {
        let _span = parc_obs::Span::enter(parc_obs::kinds::REBALANCE_ROUND);
        let loads: Vec<(usize, i64)> = self
            .nodes
            .poll_alive()
            .into_iter()
            .filter_map(|(node, row)| Some((node, row?.load())))
            .collect();
        if loads.len() < 2 {
            return 0;
        }
        let total: i64 = loads.iter().map(|&(_, l)| l.max(0)).sum();
        let mean = total as f64 / loads.len() as f64;
        let &(hot, hot_load) = loads.iter().max_by_key(|&&(_, l)| l).unwrap();
        let &(cold, _) = loads.iter().min_by_key(|&&(_, l)| l).unwrap();
        if hot == cold
            || (hot_load as f64) <= cfg.high_ratio * mean.max(1.0)
            || hot_load < cfg.min_load
        {
            return 0;
        }
        let mut moved = 0;
        let mut projected = hot_load;
        for uri in self.directory().objects_on(hot) {
            if moved >= cfg.max_migrations_per_round
                || (projected as f64) <= cfg.low_ratio * mean.max(1.0)
            {
                break;
            }
            if self.migrate_uri(&uri, cold).is_ok() {
                moved += 1;
                projected -= 1;
            }
        }
        moved
    }

    /// Spawns the background rebalancer thread; it runs
    /// [`ParcRuntime::rebalance_once`] every [`RebalanceConfig::interval`]
    /// until the returned handle is stopped or dropped. Between rounds the
    /// thread parks; stopping the handle unparks it, so `stop` returns
    /// without waiting out the interval.
    pub fn start_rebalancer(self: &Arc<Self>, cfg: RebalanceConfig) -> RebalancerHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let rt = Arc::clone(self);
        let thread = std::thread::Builder::new()
            .name("parc-rebalancer".into())
            .spawn(move || {
                let mut next_round = Instant::now();
                // Re-checked after every wake: a park may also end early.
                while !flag.load(Ordering::Relaxed) {
                    let now = Instant::now();
                    if now < next_round {
                        std::thread::park_timeout(next_round - now);
                        continue;
                    }
                    rt.rebalance_once(&cfg);
                    next_round = Instant::now() + cfg.interval;
                }
            })
            .expect("spawn rebalancer thread");
        RebalancerHandle { stop, thread: Some(thread) }
    }
}

/// Tuning knobs for the load-driven rebalancer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebalanceConfig {
    /// Delay between rounds of the background thread.
    pub interval: Duration,
    /// A node is *hot* when its load exceeds `high_ratio ×` the mean.
    pub high_ratio: f64,
    /// Migration stops once the hot node's projected load drops under
    /// `low_ratio ×` the mean — the hysteresis band that prevents
    /// objects ping-ponging between nodes.
    pub low_ratio: f64,
    /// Migration-rate cap: at most this many objects move per round.
    pub max_migrations_per_round: usize,
    /// Nodes under this absolute load are never drained, however skewed
    /// the ratios look at tiny populations.
    pub min_load: i64,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        RebalanceConfig {
            interval: Duration::from_millis(200),
            high_ratio: 1.5,
            low_ratio: 1.1,
            max_migrations_per_round: 2,
            min_load: 2,
        }
    }
}

/// Handle to the background rebalancer thread; stops and joins it on
/// [`RebalancerHandle::stop`] or drop.
pub struct RebalancerHandle {
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl RebalancerHandle {
    /// Signals the thread to stop, wakes it and joins it.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            thread.thread().unpark();
            let _ = thread.join();
        }
    }
}

impl Drop for RebalancerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicI64;

    use parc_remoting::dispatcher::FnInvokable;
    use parc_remoting::RemotingError;

    use crate::config::GrainConfig;
    use crate::runtime::tests::{counter_class, runtime};

    /// A class with `__snapshot`/`__restore`, so migration carries state.
    fn cell_class(runtime: &ParcRuntime) {
        runtime.register_class("Cell", || {
            let v = AtomicI64::new(0);
            Arc::new(FnInvokable(move |method: &str, args: &[Value]| match method {
                "set" | crate::factory::RESTORE_METHOD => {
                    v.store(
                        args.first().and_then(Value::as_i64).unwrap_or(0),
                        Ordering::SeqCst,
                    );
                    Ok(Value::Null)
                }
                "get" | crate::factory::SNAPSHOT_METHOD => {
                    Ok(Value::I64(v.load(Ordering::SeqCst)))
                }
                _ => Err(RemotingError::MethodNotFound {
                    object: "Cell".into(),
                    method: method.into(),
                }),
            }))
        });
    }

    #[test]
    fn migrate_preserves_state_and_repoints_the_proxy() {
        let rt = runtime(2, GrainConfig::default());
        cell_class(&rt);
        let cell = rt.create_on("Cell", 0).unwrap();
        cell.call("set", vec![Value::I64(42)]).unwrap();
        let old_uri = cell.uri().unwrap();
        let new_uri = rt.migrate(&cell, 1).unwrap();
        assert_ne!(old_uri, new_uri);
        assert_eq!(cell.node(), Some(1), "proxy repointed at the new home");
        assert_eq!(cell.call("get", vec![]).unwrap(), Value::I64(42));
        assert_eq!(
            rt.directory().location(&new_uri),
            Some(1),
            "directory index follows the move"
        );
    }

    #[test]
    fn stale_proxies_follow_the_forwarding_entry() {
        let rt = runtime(2, GrainConfig::default());
        cell_class(&rt);
        let cell = rt.create_on("Cell", 0).unwrap();
        cell.call("set", vec![Value::I64(7)]).unwrap();
        // A second proxy that does not learn about the migration up front.
        let stale = rt.proxy_from_uri(&cell.uri().unwrap()).unwrap();
        rt.migrate(&cell, 1).unwrap();
        // The stale proxy's call relays through the forwarder, returns the
        // right answer, and carries the Moved marker that repoints it.
        assert_eq!(stale.call("get", vec![]).unwrap(), Value::I64(7));
        assert_eq!(stale.node(), Some(1), "Moved reply repointed the stale proxy");
        // Subsequent calls go direct.
        assert_eq!(stale.call("get", vec![]).unwrap(), Value::I64(7));
    }

    #[test]
    fn migrate_same_node_is_identity() {
        let rt = runtime(2, GrainConfig::default());
        cell_class(&rt);
        let cell = rt.create_on("Cell", 0).unwrap();
        cell.call("set", vec![Value::I64(5)]).unwrap();
        let uri = cell.uri().unwrap();
        assert_eq!(rt.migrate(&cell, 0).unwrap(), uri);
        assert_eq!(cell.call("get", vec![]).unwrap(), Value::I64(5));
    }

    #[test]
    fn migrate_to_dead_or_bad_node_leaves_object_intact() {
        let rt = runtime(3, GrainConfig::default());
        cell_class(&rt);
        let cell = rt.create_on("Cell", 0).unwrap();
        cell.call("set", vec![Value::I64(9)]).unwrap();
        rt.kill_node(2);
        assert!(matches!(rt.migrate(&cell, 2), Err(ParcError::Config { .. })));
        assert!(matches!(rt.migrate(&cell, 7), Err(ParcError::Config { .. })));
        assert_eq!(cell.node(), Some(0), "failed migration leaves the proxy alone");
        assert_eq!(cell.call("get", vec![]).unwrap(), Value::I64(9));
    }

    #[test]
    fn rebalance_moves_objects_off_the_hot_node() {
        let rt = runtime(2, GrainConfig::default());
        // Skew: everything on node 0.
        let pos: Vec<Po> = (0..6).map(|_| rt.create_on("Counter", 0).unwrap()).collect();
        assert_eq!(rt.node_loads(), vec![6, 0]);
        let cfg = RebalanceConfig {
            max_migrations_per_round: 2,
            ..RebalanceConfig::default()
        };
        let moved = rt.rebalance_once(&cfg);
        assert_eq!(moved, 2, "rate cap respected");
        assert_eq!(rt.node_loads(), vec![4, 2]);
        // Every proxy still answers (through forwarders where needed).
        for po in &pos {
            po.call("total", vec![]).unwrap();
        }
        // A balanced cluster is left alone.
        let rt2 = runtime(2, GrainConfig::default());
        let _a = rt2.create_on("Counter", 0).unwrap();
        let _b = rt2.create_on("Counter", 1).unwrap();
        assert_eq!(rt2.rebalance_once(&cfg), 0, "inside the hysteresis band");
    }

    #[test]
    fn rebalancer_thread_starts_and_stops() {
        let rt = Arc::new({
            let mut b = ParcRuntime::builder();
            b.nodes(2);
            b.build().unwrap()
        });
        counter_class(&rt);
        for _ in 0..6 {
            rt.create_on("Counter", 0).unwrap();
        }
        let handle = rt.start_rebalancer(RebalanceConfig {
            interval: Duration::from_millis(5),
            ..RebalanceConfig::default()
        });
        let deadline = Instant::now() + Duration::from_secs(5);
        while rt.node_loads()[1] == 0 {
            assert!(Instant::now() < deadline, "rebalancer never moved anything");
            std::thread::sleep(Duration::from_millis(5));
        }
        handle.stop();
    }
}
