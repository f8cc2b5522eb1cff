//! The pipeline skeleton — the decomposition of the prime-number sieve.
//!
//! The paper's running example is `PrimeServer : PrimeFilter`, a sieve
//! stage that forwards candidate numbers to the next stage. [`Pipeline`]
//! creates a chain of distributed parallel objects, wires each stage to
//! its successor by passing the successor's URI through a connect method
//! (references to parallel objects sent as method arguments, §3.1), and
//! feeds items into the head with aggregation applied.

use parc_serial::Value;

use crate::error::ParcError;
use crate::po::Po;
use crate::runtime::ParcRuntime;

/// A linear chain of parallel objects.
pub struct Pipeline {
    stages: Vec<Po>,
}

impl Pipeline {
    /// Creates `stages` instances of `class` (stage *i* on the
    /// *i mod alive*-th surviving node; with a healthy cluster that is
    /// node *i mod nodes*) and connects each to its successor by calling
    /// `connect_method(successor_uri)` on it, back to front.
    ///
    /// # Errors
    ///
    /// [`ParcError::Config`] for zero stages; class or remoting failures.
    pub fn new(
        runtime: &ParcRuntime,
        class: &str,
        stages: usize,
        connect_method: &str,
    ) -> Result<Pipeline, ParcError> {
        if stages == 0 {
            return Err(ParcError::Config { detail: "pipeline needs at least one stage".into() });
        }
        let stage_pos: Vec<Po> = (0..stages)
            .map(|i| runtime.create_spread(class, i))
            .collect::<Result<_, _>>()?;
        // Wire back to front so a stage never sees a half-connected
        // successor.
        for i in (0..stages - 1).rev() {
            let next_uri = stage_pos[i + 1]
                .uri()
                .expect("pipeline stages are always distributed");
            stage_pos[i].call(connect_method, vec![Value::Str(next_uri)])?;
        }
        Ok(Pipeline { stages: stage_pos })
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// True when the pipeline has no stages (never, post-construction).
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// The stage proxies, head first.
    pub fn stages(&self) -> &[Po] {
        &self.stages
    }

    /// The head stage.
    pub fn head(&self) -> &Po {
        &self.stages[0]
    }

    /// The tail stage.
    pub fn tail(&self) -> &Po {
        &self.stages[self.stages.len() - 1]
    }

    /// Feeds one asynchronous item into the head (aggregation applies).
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn feed(&self, method: &str, args: Vec<Value>) -> Result<(), ParcError> {
        self.head().post(method, args)
    }

    /// Flushes the head's aggregation buffer.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn flush(&self) -> Result<(), ParcError> {
        self.head().flush()
    }

    /// Synchronous call on the tail — typically "collect results", which
    /// also acts as a completion barrier for anything the head already
    /// shipped *if the application drained intermediate stages* (stages
    /// forward one-way; see the sieve example for a drain protocol).
    ///
    /// # Errors
    ///
    /// Transport failures or server faults.
    pub fn query_tail(&self, method: &str, args: Vec<Value>) -> Result<Value, ParcError> {
        self.tail().call(method, args)
    }
}

impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline").field("stages", &self.stages.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GrainConfig;
    use parc_remoting::dispatcher::FnInvokable;
    use parc_remoting::inproc::InprocNetwork;
    use parc_remoting::{Activator, RemotingError};
    use parc_sync::Mutex;
    use std::sync::Arc;

    /// A stage that appends its tag to each travelling item and forwards.
    fn tagger_class(rt: &ParcRuntime, tags: Arc<Mutex<Vec<String>>>) {
        let net: InprocNetwork = rt.network().clone();
        rt.register_class("Tagger", move || {
            let next: Mutex<Option<parc_remoting::RemoteObject>> = Mutex::new(None);
            let net = net.clone();
            let tags = Arc::clone(&tags);
            let my_tag: Mutex<Option<String>> = Mutex::new(None);
            Arc::new(FnInvokable(move |method: &str, args: &[Value]| match method {
                "connect" => {
                    let uri = args[0].as_str().unwrap_or_default();
                    *next.lock() =
                        Some(Activator::get_object(&net, uri).map_err(|e| {
                            RemotingError::Transport { detail: e.to_string() }
                        })?);
                    Ok(Value::Null)
                }
                "set_tag" => {
                    *my_tag.lock() = args[0].as_str().map(str::to_string);
                    Ok(Value::Null)
                }
                "item" => {
                    let mut text = args[0].as_str().unwrap_or_default().to_string();
                    if let Some(tag) = my_tag.lock().as_deref() {
                        text.push_str(tag);
                    }
                    match next.lock().as_ref() {
                        Some(next) => next.post("item", vec![Value::Str(text)]).map(|_| ()),
                        None => {
                            tags.lock().push(text);
                            Ok(())
                        }
                    }
                    .map(|()| Value::Null)
                }
                "drain" => Ok(Value::Null), // barrier helper: a sync no-op
                _ => Err(RemotingError::MethodNotFound {
                    object: "Tagger".into(),
                    method: method.into(),
                }),
            }))
        });
    }

    fn build(nodes: usize, stages: usize) -> (ParcRuntime, Pipeline, Arc<Mutex<Vec<String>>>) {
        let mut b = ParcRuntime::builder();
        b.nodes(nodes).grain(GrainConfig { aggregation_factor: 2, ..GrainConfig::default() });
        let rt = b.build().unwrap();
        let sink = Arc::new(Mutex::new(Vec::new()));
        tagger_class(&rt, Arc::clone(&sink));
        let p = Pipeline::new(&rt, "Tagger", stages, "connect").unwrap();
        for (i, stage) in p.stages().iter().enumerate() {
            stage.call("set_tag", vec![Value::Str(format!("-s{i}"))]).unwrap();
        }
        (rt, p, sink)
    }

    /// Sync no-op on every stage in order: once it returns, everything fed
    /// before it has been forwarded through that stage.
    fn drain(p: &Pipeline) {
        for stage in p.stages() {
            stage.call("drain", vec![]).unwrap();
        }
    }

    #[test]
    fn items_traverse_all_stages_in_order() {
        let (_rt, p, sink) = build(2, 3);
        for i in 0..4 {
            p.feed("item", vec![Value::Str(format!("x{i}"))]).unwrap();
        }
        p.flush().unwrap();
        drain(&p);
        let got = sink.lock().clone();
        assert_eq!(
            got,
            vec!["x0-s0-s1-s2", "x1-s0-s1-s2", "x2-s0-s1-s2", "x3-s0-s1-s2"]
        );
    }

    #[test]
    fn stages_spread_round_robin_over_nodes() {
        let (_rt, p, _) = build(2, 4);
        let nodes: Vec<_> = p.stages().iter().map(|s| s.node().unwrap()).collect();
        assert_eq!(nodes, vec![0, 1, 0, 1]);
        assert_eq!(p.len(), 4);
        assert_eq!(p.head().node(), Some(0));
        assert_eq!(p.tail().node(), Some(1));
    }

    #[test]
    fn single_stage_pipeline_sinks_directly() {
        let (_rt, p, sink) = build(1, 1);
        p.feed("item", vec![Value::Str("a".into())]).unwrap();
        p.flush().unwrap();
        drain(&p);
        assert_eq!(sink.lock().clone(), vec!["a-s0"]);
    }

    #[test]
    fn zero_stages_rejected() {
        let mut b = ParcRuntime::builder();
        b.nodes(1);
        let rt = b.build().unwrap();
        tagger_class(&rt, Arc::new(Mutex::new(Vec::new())));
        assert!(matches!(
            Pipeline::new(&rt, "Tagger", 0, "connect"),
            Err(ParcError::Config { .. })
        ));
    }

    #[test]
    fn query_tail_reaches_last_stage() {
        let (_rt, p, _) = build(2, 2);
        assert_eq!(p.query_tail("drain", vec![]).unwrap(), Value::Null);
    }
}
