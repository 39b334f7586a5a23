//! `RankTrainer::train_epoch` spelled out again from the public recipes it
//! is composed of, with a span around each call. The arithmetic and the
//! order of collectives are those of the trainer, so a traced epoch must
//! produce the bitwise-same loss as `train_epoch` for the same epoch index;
//! the workloads assert that. When the trainer's epoch changes, this file
//! changes with it, and the assertion says so.

use crate::span::Tracer;
use plexus::activation::{ActivationStore, Fetched};
use plexus::dist::DistContext;
use plexus::grid::roles_for_layer;
use plexus::layer::{CommPlan, DistLayer, DistLayerCache, TimeSplit};
use plexus::loss::dist_masked_cross_entropy;
use plexus::setup::{ProblemMeta, RankData};
use plexus::trainer::{DistEpochStats, DistTrainOptions};
use plexus_comm::{Communicator, ThreadComm};
use plexus_gnn::Adam;
use plexus_graph::RowRequestPlan;
use plexus_tensor::ops::relu_into;
use plexus_tensor::Matrix;
use std::time::Instant;

/// Span names; each is also the stem of the per-layer metric it feeds.
pub const EPOCH: &str = "core.trainer.epoch";
pub const GATHER_INPUT: &str = "core.layer.gather_input";
pub const AGGREGATE: &str = "core.layer.aggregate";
pub const GATHER_WEIGHTS: &str = "core.layer.gather_weights";
pub const COMBINE: &str = "core.layer.combine";
pub const ACTIVATION: &str = "core.layer.activation";
pub const BACKWARD: &str = "core.layer.backward";
pub const REBUILD: &str = "core.layer.rebuild_cache";
pub const LOSS: &str = "core.loss";
pub const ACT_INSERT: &str = "core.activation.insert";
pub const ACT_FETCH: &str = "core.activation.fetch";
pub const ADAM: &str = "gnn.adam_step";
pub const ROWPLAN: &str = "graph.rowplan_build";

/// The per-layer metrics that are the median per-op time of one span.
const SPAN_METRICS: [(&str, &str); 10] = [
    ("core.layer.gather_input_ms", GATHER_INPUT),
    ("core.layer.aggregate_ms", AGGREGATE),
    ("core.layer.gather_weights_ms", GATHER_WEIGHTS),
    ("core.layer.combine_ms", COMBINE),
    ("core.layer.backward_ms", BACKWARD),
    ("core.loss_ms", LOSS),
    ("core.activation.insert_ms", ACT_INSERT),
    ("core.activation.fetch_ms", ACT_FETCH),
    ("gnn.adam_step_ms", ADAM),
    ("graph.rowplan_build_ms", ROWPLAN),
];

pub fn push_span_metrics(tr: &Tracer, m: &mut Vec<(&'static str, f64)>) {
    m.extend(SPAN_METRICS.iter().map(|&(metric, span)| (metric, tr.median_ms(span))));
}

/// One rank's training state, as `RankTrainer::from_parts` assembles it
/// (replication 1, no fault plan).
pub struct TracedTrainer {
    ctx: DistContext<ThreadComm>,
    layers: Vec<DistLayer>,
    acts: ActivationStore,
    w_stored: Vec<Matrix>,
    w_opts: Vec<Adam>,
    f_stored: Matrix,
    f_opt: Adam,
    row_plan: Option<RowRequestPlan>,
    labels_local: Vec<u32>,
    mask_local: Vec<bool>,
    num_classes_real: usize,
    total_train: usize,
}

impl TracedTrainer {
    pub fn new(
        meta: &ProblemMeta,
        ctx: DistContext<ThreadComm>,
        rd: RankData,
        opts: &DistTrainOptions,
        tr: &mut Tracer,
    ) -> Self {
        assert_eq!(opts.replication, 1, "the traced epoch does not spell out replication");
        let RankData { a_shards, a_shards_t, f_stored, w_stored, labels_local, mask_local } = rd;
        let layers: Vec<DistLayer> = a_shards
            .into_iter()
            .zip(a_shards_t)
            .enumerate()
            .map(|(l, (a, at))| {
                DistLayer::new(
                    l,
                    roles_for_layer(l),
                    a,
                    at,
                    opts.aggregation,
                    opts.tuning,
                    opts.overlap,
                )
            })
            .collect();
        let w_opts = w_stored.iter().map(|w| Adam::new(w.rows(), w.cols(), opts.adam)).collect();
        let f_opt = Adam::new(f_stored.rows(), f_stored.cols(), opts.adam);
        let row_plan = match opts.comm_plan {
            CommPlan::Dense => None,
            CommPlan::SparseRows => {
                let s = tr.begin(ROWPLAN);
                let plan = RowRequestPlan::from_column_support(
                    &layers[0].a_shard,
                    ctx.feature_owner_group().size(),
                );
                tr.end(s);
                Some(plan)
            }
        };
        TracedTrainer {
            ctx,
            layers,
            acts: ActivationStore::new(opts.residency),
            w_stored,
            w_opts,
            f_stored,
            f_opt,
            row_plan,
            labels_local,
            mask_local,
            num_classes_real: meta.num_classes_real,
            total_train: meta.total_train,
        }
    }

    pub fn activation_stats(&self) -> plexus::ActivationStats {
        self.acts.stats()
    }

    /// One epoch; the spans opened here all belong to the tracer's
    /// current op.
    pub fn epoch(&mut self, tr: &mut Tracer) -> DistEpochStats {
        let epoch = tr.begin(EPOCH);
        let mut timing = TimeSplit::default();
        let num_layers = self.layers.len();

        let s = tr.begin(GATHER_INPUT);
        let mut x = self.layers[0].gather_input(
            &self.ctx,
            &self.f_stored,
            self.row_plan.as_ref(),
            &mut timing,
        );
        tr.end(s);

        for l in 0..num_layers {
            let activated = l + 1 < num_layers;
            let layer = &mut self.layers[l];
            let s = tr.begin(AGGREGATE);
            let h = layer.aggregate(&self.ctx, &x, &mut timing);
            tr.end(s);
            let s = tr.begin(GATHER_WEIGHTS);
            let w_full = layer.gather_weights(&self.ctx, &self.w_stored[l], &mut timing);
            tr.end(s);
            let s = tr.begin(COMBINE);
            let q = layer.combine(&self.ctx, &h, &w_full, &mut timing);
            tr.end(s);

            let s = tr.begin(ACTIVATION);
            let t0 = Instant::now();
            let mut out = layer.workspace_mut().take_scratch(q.rows(), q.cols());
            if activated {
                relu_into(&q, &mut out);
            } else {
                out.as_mut_slice().copy_from_slice(q.as_slice());
            }
            timing.compute_s += t0.elapsed().as_secs_f64();
            tr.end(s);

            let input = std::mem::replace(&mut x, out);
            let cache = DistLayerCache { h, q, w_full, activated };
            let s = tr.begin(ACT_INSERT);
            self.acts
                .insert(l, cache, input, layer.workspace_mut())
                .expect("activation spill failed");
            tr.end(s);
        }

        let s = tr.begin(LOSS);
        let t1 = Instant::now();
        let loss_out = dist_masked_cross_entropy(
            &self.ctx,
            roles_for_layer(num_layers - 1),
            &x,
            &self.labels_local,
            &self.mask_local,
            self.num_classes_real,
            self.total_train,
        );
        timing.comm_s += t1.elapsed().as_secs_f64();
        tr.end(s);
        self.layers[num_layers - 1].recycle(x);

        let mut carried = loss_out.dlogits_local;
        let mut df_stored: Option<Matrix> = None;
        for l in (0..num_layers).rev() {
            let dout = std::mem::replace(&mut carried, Matrix::zeros(0, 0));
            let s = tr.begin(ACT_FETCH);
            let fetched = self.acts.fetch(l).expect("activation reload failed");
            tr.end(s);
            let cache = match fetched {
                Fetched::Cache(cache) => cache,
                Fetched::Rebuild { input, activated } => {
                    let s = tr.begin(REBUILD);
                    let (cache, t) = self.layers[l].rebuild_cache(
                        &self.ctx,
                        &input,
                        &self.w_stored[l],
                        activated,
                    );
                    tr.end(s);
                    timing.add(t);
                    self.layers[l].recycle(input);
                    cache
                }
            };
            let s = tr.begin(BACKWARD);
            let (grads, t) = self.layers[l].backward(&self.ctx, cache, dout, l == 0);
            tr.end(s);
            timing.add(t);
            let s = tr.begin(ADAM);
            self.w_opts[l].step(&mut self.w_stored[l], &grads.dw_stored);
            tr.end(s);
            self.layers[l].bump_weights_version();
            self.layers[l].recycle(grads.dw_stored);
            if l == 0 {
                df_stored = Some(grads.df);
            } else {
                carried = grads.df;
            }
        }
        let df_stored = df_stored.expect("layer 0 must produce a feature grad");
        let s = tr.begin(ADAM);
        self.f_opt.step(&mut self.f_stored, &df_stored);
        tr.end(s);
        self.layers[0].recycle(df_stored);
        self.acts.assert_drained();

        tr.end(epoch);
        DistEpochStats { loss: loss_out.loss, train_accuracy: loss_out.train_accuracy, timing }
    }
}
