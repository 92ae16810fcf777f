"""Temporal action detection toolkit.

A pure-numpy implementation of a proposal-based detection pipeline:
synthetic data generation, data pre-processing strategies, a dense
boundary-matching proposal grid with random proposal-feature masking, a
trainable confidence network with hand-written gradients, soft-NMS
post-processing with video-level class assignment, model ensembling, and
AR@AN / AUC / mAP evaluation.
"""

from .config import (ConfigError, EnsembleConfig, EvalConfig, GridConfig,
                     PathsConfig, PostprocessConfig, RunConfig, TrainConfig,
                     build_model_config, load_run_config,
                     run_config_from_dict)
from .dataio import (AnnotationError, AnnotationSet, FeatureIOError,
                     Instance, SynthConfig, SynthesisError, VideoAnnotation,
                     load_annotations, load_class_scores, load_features,
                     rescale_features, save_annotations, save_class_scores,
                     save_features, synth_dataset)
from .metrics import (ARCurve, MapReport, ap_at_tiou, ar_at_an, ar_curve,
                      auc, average_map, detection_ground_truth,
                      proposal_ground_truth)
from .model import (BoundaryLabels, ModelConfig, ModelIOError,
                    NetworkOutputs, TrainingDivergedError, TrainSample,
                    boundary_labels, compute_gradients, forward, init_params,
                    load_model, load_outputs, pem_loss, save_model,
                    save_outputs, tem_loss, train)
from .postprocess import (Detection, Proposal, assemble_detections,
                          ensemble_maps, fuse_scores, load_detections,
                          load_proposals, rescale_outputs, save_detections,
                          save_proposals, soft_nms)
from .preprocess import (PreprocessConfig, instance_coverage,
                         interval_union_length, remove_long_coverage,
                         resample_short, resize_instance, temporal_shift)
from .proposals import (MaskConfig, ProposalGrid, SamplingMatrix,
                        build_sampling_matrix, draw_mask, gt_iou_map,
                        mask_proposals, proposal_grid,
                        sample_proposal_features, segment_iou)

__version__ = "0.1.0"

__all__ = [
    "AnnotationError", "AnnotationSet", "ARCurve", "BoundaryLabels",
    "ConfigError", "Detection", "EnsembleConfig", "EvalConfig",
    "FeatureIOError", "GridConfig", "Instance", "MapReport", "MaskConfig",
    "ModelConfig", "ModelIOError", "NetworkOutputs", "PathsConfig",
    "PostprocessConfig", "PreprocessConfig", "Proposal", "ProposalGrid",
    "RunConfig", "SamplingMatrix", "SynthConfig", "SynthesisError",
    "TrainConfig", "TrainingDivergedError", "TrainSample", "VideoAnnotation",
    "ap_at_tiou", "ar_at_an", "ar_curve", "assemble_detections", "auc",
    "average_map", "boundary_labels", "build_model_config",
    "build_sampling_matrix", "compute_gradients", "detection_ground_truth",
    "draw_mask", "ensemble_maps", "forward", "fuse_scores", "gt_iou_map",
    "init_params", "instance_coverage", "interval_union_length",
    "load_annotations", "load_class_scores", "load_detections",
    "load_features", "load_model", "load_outputs", "load_proposals",
    "load_run_config", "mask_proposals", "pem_loss", "proposal_grid",
    "proposal_ground_truth", "remove_long_coverage", "resample_short",
    "rescale_features", "rescale_outputs", "resize_instance",
    "run_config_from_dict", "save_annotations", "save_class_scores",
    "save_detections", "save_features", "save_model", "save_outputs",
    "save_proposals", "segment_iou", "soft_nms", "synth_dataset",
    "tem_loss", "temporal_shift", "train",
]
