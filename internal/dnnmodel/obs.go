package dnnmodel

import "extrapdnn/internal/obs"

// DNN-modeler telemetry: run counts for the three pipeline stages plus
// dataset-synthesis cost. Spans with matching names (dnnmodel.pretrain,
// dnnmodel.adapt, dnnmodel.predict) carry the per-call structure when
// tracing is on.
var (
	obsPretrains = obs.NewCounter("extrapdnn_dnnmodel_pretrain_total",
		"Generic pretraining runs started.")
	obsAdapts = obs.NewCounter("extrapdnn_dnnmodel_adapt_total",
		"Domain-adaptation training runs started (cache misses land here; hits do not).")
	obsPredicts = obs.NewCounter("extrapdnn_dnnmodel_predict_total",
		"DNN modeling runs (classification + hypothesis fitting).")
	obsDatasetBuilds = obs.NewCounter("extrapdnn_dnnmodel_dataset_builds_total",
		"Synthetic dataset constructions (pretraining and adaptation).")
	obsDatasetRows = obs.NewCounter("extrapdnn_dnnmodel_dataset_rows_total",
		"Encoded sample rows produced by dataset construction.")
	obsDatasetSeconds = obs.NewHistogram("extrapdnn_dnnmodel_dataset_build_seconds",
		"Wall time per synthetic dataset construction.", obs.ExpBuckets(0.001, 4, 10))
)
