from .networks import (
    CriticSpec,
    GeneratorSpec,
    build_critic,
    build_generator,
    validate_wgan_critic,
)
from .conditioning import (
    CONDITION_CLASSES,
    N_CONDITIONS,
    ConditionLabel,
    condition_channels,
    condition_concat,
    onehot_batch,
)
from .losses import (
    critic_wloss,
    discriminator_logloss,
    generator_logloss,
    generator_wloss,
    gradient_penalty,
    interpolate,
    wasserstein_estimate,
)
from .training import (
    GanHistory,
    GanTrainSpec,
    generate_sequences,
    sample_generator,
    save_gan,
    train_gan,
)
from .diagnostics import (
    assign_modes,
    pairwise_distance_stats,
)
