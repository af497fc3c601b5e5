"""Echo-dynamics toolkit.

From an echocardiogram-like frame sequence: dense optical flow, polar
sector descriptors, RBF dynamics modeling with residual energy maps
(the EDG) and the low-dimensional per-frame feature P_EDG, a reference
phase-dynamics attention forward pass, and Dice/HD95/TCD evaluation.
"""

from .cpda import (
    CpdaWeights,
    FeatureClip,
    PhaseTrack,
    cpda_forward,
    load_feature_clip,
    mha_forward,
    phase_track,
    pool_spatial,
    save_feature_clip,
    seed_cpda_weights,
)
from .descriptor import (
    PcaModel,
    ScalerModel,
    SectorGrid,
    apply_scaler,
    back_project,
    descriptor_sequence,
    extract_descriptor,
    fit_pca,
    fit_scaler,
    project,
    sector_of,
)
from .dynamics import (
    DynamicsModel,
    RbfConfig,
    edg_sequence,
    energy_sequence,
    kmeans,
    pedg_sequence,
    predict_delta,
    rbf_response,
    train_dynamics,
)
from .flow import FlowField, FlowParams, compute_flow, flow_sequence
from .metrics import MetricsReport, dice, evaluate, hd95, tcd
from .seqio import (
    FrameSequence,
    MaskSequence,
    PhantomSpec,
    generate_phantom,
    load_masks,
    load_sequence,
    save_masks,
    save_sequence,
)

__version__ = "0.1.0"
