"""Coherence-boosted language model decoding, scoring and evaluation.

The core idea: treat one autoregressive LM as an ensemble of experts,
each conditioning on a different suffix of the context, and combine them
log-linearly.  Negative weights on short-context experts penalize tokens
that are predictable without the distant context, which sharpens
long-range coherence in generation and ranking.
"""

__version__ = "0.1.0"

from .backend import Backend, BackendInfo, CachingBackend, Tokens
from .boosting import (
    BoostSpec,
    MAX_CONTEXT,
    MCScore,
    SHORT,
    boosted_next_dist,
    boosted_next_dist_batch,
    grid_search,
    score_choice,
    score_choices,
)
from .decode import GenConfig, GenResult, beam_search, generate, generate_dialog
from .dist import (
    apply_temperature,
    kl_divergence,
    log_linear_mix,
    sample,
    softmax,
    truncate_top_k,
    truncate_top_p,
)
from .errors import BackendError, ContractError, NumericalGuardError
from .remote import BackendServer, RemoteBackend
from .tasks import (
    CopySourceTask,
    EvalResult,
    LamaItem,
    LastTokenItem,
    MCItem,
    SummarizeItem,
    eval_items,
    eval_lama_style,
    eval_last_token,
    eval_multiple_choice,
    make_copy_source_task,
    summarize_eval,
)
from .toy_lm import (
    LossProfile,
    ToyBackend,
    ToyLMParams,
    TrainConfig,
    WhitespaceTokenizer,
    load_params,
    loss_profile,
    save_params,
    train_uniform_scalarization,
)
from .tuning import TuneConfig, TuneResult, coherence_tune
from .analysis import BoostDerivativeReport, boost_derivative_check, pareto_profile
