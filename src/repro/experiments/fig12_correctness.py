"""Figures 12 & 19 and Table 3: correctness of training in Harmony.

Fine-tune the numeric stand-ins ("BERT-tiny" on synthetic MRPC with Adam;
"GPT-tiny" on synthetic WikiText) three ways -- the single-device
reference, Harmony PP (1 worker, microbatched + rematerialized), and
Harmony DP (4 workers) -- and compare the loss of *every* minibatch plus
the final evaluation quality.  Synchronous-SGD semantics require the
curves to coincide; in float64 they agree to ~1e-12.
"""

from __future__ import annotations

from repro.experiments.common import Row, render
from repro.numeric.data import Dataset, synthetic_mrpc, synthetic_wikitext
from repro.numeric.harmony_exec import HarmonyNumericTrainer
from repro.numeric.model import make_classifier, make_lm
from repro.numeric.optim import Adam
from repro.numeric.trainer import ReferenceTrainer

BATCH = 32
EPOCHS = 3


def _curves(task: str, dataset: Dataset, make_model, fast: bool) -> list[Row]:
    epochs = 1 if fast else EPOCHS
    runs = {}
    reference = ReferenceTrainer(make_model(), Adam(lr=2e-3))
    runs["baseline-1gpu"] = reference.train(dataset, BATCH, epochs)
    runs["harmony-pp"] = HarmonyNumericTrainer(
        make_model(), Adam(lr=2e-3), u_f=8, u_b=4
    ).train(dataset, BATCH, epochs)
    runs["harmony-dp-4gpu"] = HarmonyNumericTrainer(
        make_model(), Adam(lr=2e-3), u_f=8, u_b=4, n_workers=4
    ).train(dataset, BATCH, epochs)

    base = runs["baseline-1gpu"]
    rows = []
    for name, curve in runs.items():
        deviation = max(
            abs(a - b) for a, b in zip(base.losses, curve.losses)
        )
        rows.append({
            "task": task,
            "scheme": name,
            "minibatches": len(curve.losses),
            "first_loss": curve.losses[0],
            "final_loss": curve.losses[-1],
            "max_loss_dev_vs_baseline": deviation,
            "eval_accuracy(%)": curve.eval_accuracy * 100,
        })
    return rows


def run(fast: bool = False) -> list[Row]:
    rows = _curves("mrpc (Fig 12)", synthetic_mrpc(),
                   lambda: make_classifier(seed=0), fast)
    rows += _curves("wikitext (Fig 19)", synthetic_wikitext(),
                    lambda: make_lm(seed=1), fast)
    return rows


def exact_match(rows: list[Row], tol: float = 1e-10) -> bool:
    """Table 3's claim: every scheme matches the baseline."""
    return all(row["max_loss_dev_vs_baseline"] <= tol for row in rows)


def main() -> None:
    rows = run()
    print(render(rows))
    print("exact match (<=1e-10):", exact_match(rows))


if __name__ == "__main__":
    main()
