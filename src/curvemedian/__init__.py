"""curvemedian: representative-curve estimation for mutually warped curves.

Curves sampled on a shared grid are treated as points of R^m lying near a
low-dimensional shape.  Geodesic distances along that shape are estimated
from a spanning-tree-guided ball-coverage graph, and the representative
curve is the sample member minimizing the summed (alpha-power) estimated
geodesic distance to the rest of the sample.  Simulators, exact shift-model
oracles, Euclidean baselines, and a nearest-template classification harness
round out the package.
"""

from .benchmark import (
    BenchmarkClass,
    BenchmarkConfig,
    generate_benchmark,
    load_benchmark_config,
    run_benchmark,
)
from .classify import (
    TEMPLATE_METHODS,
    ClassifierConfig,
    ConfusionMatrix,
    KnnClassifier,
    TemplateSet,
    classify_nearest_template,
    confusion_from_predictions,
    evaluate,
    extract_templates,
    knn_classify,
    predict_labels,
)
from .errors import DataFormatError, NumericError, UsageError
from .graphs import (
    DEFAULT_CAP,
    GeodesicResult,
    WeightedGraph,
    ball_radii,
    build_coverage_graph,
    cloud_diameter,
    compute_emst,
    geodesic_pipeline,
    pipeline_diagnostics,
    shortest_path_distances,
)
from .models import (
    TARGETS,
    CurvePanel,
    ShiftConfig,
    Sim1Config,
    Sim2Config,
    TargetFunction,
    exact_geodesic_matrix,
    exact_shift_geodesic,
    generate_shift_sample,
    generate_sim1,
    generate_sim2,
    get_target,
    intrinsic_median_exact,
    sim1_truth,
    structural_median_oracle,
)
from .panel_io import (
    fmt,
    read_classifier_config,
    read_cloud,
    read_curve,
    read_edges,
    read_json,
    read_matrix,
    read_panel,
    read_points_auto,
    read_shifts,
    write_cloud,
    write_confusion,
    write_curve,
    write_edges,
    write_json,
    write_matrix,
    write_panel,
    write_predictions,
    write_shifts,
    write_templates,
    write_warp_params,
)
from .stats import (
    IntrinsicEstimate,
    cross_sectional_mean,
    euclidean_medoid,
    intrinsic_estimate,
    pairwise_euclidean_matrix,
)

__version__ = "0.1.0"
