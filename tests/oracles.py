"""Reference implementations the production fast paths are checked against.

These are oracles, not options: the library has one training path, and
the equivalence tests (``tests/test_training_batched.py``) and the
training benchmark (``benchmarks/bench_training.py``, which imports this
module through ``benchmarks/conftest.py``) compare it against the slow,
obviously-correct loop kept here.
"""

from __future__ import annotations

from typing import Sequence

from repro.autodiff import functional as F
from repro.autodiff.tensor import Tensor
from repro.core.trainer import Trainer
from repro.kg.triple import Triple


class SequentialTrainer(Trainer):
    """:class:`Trainer` scoring one autodiff graph per triple.

    Negatives are drawn by the same batch sampler call as the production
    trainer, so under the same seed both see identical corruptions; only
    the ranking loss (Eq. 14) is assembled from per-triple
    :meth:`~repro.core.model.DEKGILP.forward` calls instead of one
    ``forward_batch``.
    """

    def _ranking_loss(self, batch: Sequence[Triple]) -> Tensor:
        batch = list(batch)
        if not batch:
            return Tensor(0.0)
        negatives = self._negative_sampler.sample_batch(batch)
        losses = []
        margin = self.model.config.ranking_margin
        for positive, per_positive in zip(batch, negatives):
            positive_score = self.model.forward(positive)
            for negative in per_positive:
                negative_score = self.model.forward(negative)
                losses.append(
                    (Tensor(margin) - positive_score + negative_score).clamp_min(0.0)
                )
        if not losses:
            return Tensor(0.0)
        return F.stack(losses).mean()
