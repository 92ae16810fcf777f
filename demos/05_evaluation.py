"""Score hand-made proposals and detections, then read the reports.

The inputs are small enough to verify by eye: four ground-truth instances
across three videos, proposals with deliberate rank mistakes and one
jittered segment, detections with a duplicate and a wrong label.
"""

import numpy as np

from tadkit import (AnnotationSet, Detection, Instance, Proposal,
                    VideoAnnotation, ar_curve, auc, average_map,
                    detection_ground_truth, proposal_ground_truth)
from tadkit.metrics import format_ar_report, format_map_report

anns = AnnotationSet({
    "a": VideoAnnotation("a", 60.0, "validation",
                         [Instance(10.0, 20.0, "jump"),
                          Instance(40.0, 50.0, "run")]),
    "b": VideoAnnotation("b", 30.0, "validation",
                         [Instance(5.0, 15.0, "jump")]),
    "c": VideoAnnotation("c", 70.0, "validation",
                         [Instance(30.0, 60.0, "run")]),
})

props = {
    # both instances found, ranked above the junk
    "a": [Proposal(10.0, 20.0, 0.9), Proposal(40.0, 50.0, 0.8),
          Proposal(0.0, 5.0, 0.7)],
    # the true segment hides at rank 3: only AN >= 3 recalls it
    "b": [Proposal(20.0, 25.0, 0.9), Proposal(0.0, 3.0, 0.85),
          Proposal(5.0, 15.0, 0.5)],
    # jittered: IoU 0.9, so it fails only the 0.95 threshold
    "c": [Proposal(33.0, 60.0, 0.9)],
}

gt = proposal_ground_truth(anns)
print("recall rises with the proposal budget AN:")
for an in (1, 2, 3):
    print(f"  AR@{an} = {float(ar_curve(props, gt, an).ar[-1]):.4f}")

curve = ar_curve(props, gt, an_max=100)
print("\n" + format_ar_report(curve, auc(curve)))

# mAP: per-class AP averaged over classes, then over tIoU thresholds
dets = {
    "a": [Detection(10.0, 20.0, "jump", 0.9),   # true positive
          Detection(40.0, 50.0, "run", 0.85),   # true positive
          Detection(10.0, 20.0, "jump", 0.3)],  # duplicate -> false positive
    "b": [Detection(5.0, 15.0, "run", 0.8)],    # wrong label -> false positive
    "c": [Detection(33.0, 60.0, "run", 0.7)],   # IoU 0.9: lost at tIoU 0.95
}
report = average_map(dets, detection_ground_truth(anns))
print("\n" + format_map_report(report))
print("\nper-class AP at tIoU 0.5 and 0.95:")
for label, aps in report.ap_table.items():
    print(f"  {label}: {aps[0]:.4f}  {aps[-1]:.4f}")

# 'jump' caps at 0.5: one of its two instances is never detected. 'run'
# pays for the mislabelled detection outranking the last true positive,
# and at tIoU 0.95 the jittered segment no longer counts at all.
assert np.isclose(report.ap_table["jump"][0], 0.5)
assert np.isclose(report.ap_table["run"][0], 0.5 + 0.5 * (2 / 3))
assert np.isclose(report.ap_table["run"][-1], 0.5)
