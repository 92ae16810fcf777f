"""Temporal action detection toolkit.

A pure-numpy implementation of a proposal-based detection pipeline:
synthetic data generation, data pre-processing strategies, a dense
boundary-matching proposal grid with random proposal-feature masking, a
trainable confidence network with hand-written gradients, soft-NMS
post-processing with video-level class assignment, model ensembling, and
AR@AN / AUC / mAP evaluation.
"""

from importlib import import_module

__version__ = "0.1.0"

# The module that defines each public name. ``import tadkit`` loads none of
# them: a name's module is imported on first use (PEP 562), so a command
# loads only the modules it calls.
_HOMES = {
    "config": """ConfigError EnsembleConfig EvalConfig MaskConfig ModelConfig
        PathsConfig PostprocessConfig PreprocessConfig RunConfig
        TrainingDivergedError load_run_config run_config_from_dict""",
    "dataio": """AnnotationError AnnotationSet FeatureIOError Instance
        NetworkOutputs SynthConfig SynthesisError VideoAnnotation
        load_annotations load_class_scores load_features load_outputs
        rescale_features save_annotations save_class_scores save_features
        save_outputs synth_dataset""",
    "metrics": """ARCurve MapReport ap_at_tiou ar_curve auc average_map
        detection_ground_truth proposal_ground_truth""",
    "model": """BoundaryLabels ModelIOError TrainSample boundary_labels
        compute_gradients forward init_params load_model save_model train""",
    "postprocess": """Detection Proposal assemble_detections ensemble_maps
        fuse_scores load_detections load_proposals rescale_outputs
        save_detections save_proposals soft_nms""",
    "preprocess": """instance_coverage interval_union_length
        remove_long_coverage resample_short resize_instance temporal_shift""",
    "proposals": """ProposalGrid SamplingMatrix build_sampling_matrix draw_mask
        gt_iou_map proposal_grid sample_proposal_features""",
}
_HOME = {name: module for module, names in _HOMES.items()
         for name in names.split()}

__all__ = sorted(_HOME, key=str.lower)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
