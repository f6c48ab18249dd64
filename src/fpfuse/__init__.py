"""fpfuse: hybrid Wi-Fi/BLE RSS fingerprint localization.

Pipeline: normalization -> per-channel Bayesian denoising (KF/UKF/PF) ->
optional persistent-homology feature augmentation -> dual regressors
(random forest + weighted kNN) -> evidence-theoretic fusion with belief maps.
"""

from .datamodel import (Bounds, Position, RadioMap, SplitSpec, SynthSpec,
                        load_radio_map, save_radio_map, stratified_split,
                        synth_radio_map)
from .evaluate import (AblationConfig, EvalReport, NoiseSpec, SearchGrids,
                       cv_grid_search, holm_bonferroni, inject_bursty,
                       inject_dbm_noise, inject_gauss_jitter, paired_t_test,
                       rmse_xy, run_ablation_ladder, wilcoxon_signed_rank)
from .filters import (FilterConfig, KfState, PfState, effective_sample_size,
                      filter_stream, kf_step, pf_noise, pf_step, start_filter,
                      step_filter, systematic_resample, ukf_step)
from .fuse import (Bba, ChoquetMeasure, ConflictError, GridSpec,
                   argmax_belief, bba_from_point, choquet, confidence,
                   convex_combo, dempster_combine, fit_choquet_measure,
                   make_grid, weighted_centroid)
from .pipeline import (ArtifactError, PipelineArtifact, PipelineConfig,
                       PredictorSession, ScanError, bench_pipeline,
                       fit_pipeline, load_artifact, predict_one, save_artifact)
from .preprocess import (ChannelVariances, NormStats, apply_norm,
                         fit_channel_variances, fit_norm_stats,
                         normalize_matrix)
from .regress import (KnnIndex, RfConfig, RfModel, build_knn_index,
                      predict_wknn, train_rf)
from .topo import (PersistenceDiagram, augment, embed_curve, ph_features,
                   vr_persistence)

__version__ = "0.1.0"
