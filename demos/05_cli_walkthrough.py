"""End-to-end command-line walkthrough on generated TSV inputs.

Writes raw interaction/demographic files, then drives every subcommand:
preprocess, train, attack, eval, export-embeddings and a small grid.
"""

import subprocess
import sys
import tempfile
from pathlib import Path

from advrec.synthetic import planted_dataset

work = tempfile.TemporaryDirectory(prefix="advrec-demo-")  # removed at the end of the demo
workdir = Path(work.name)
print(f"working in {workdir}")

dataset, attrs = planted_dataset(n_users=120, n_items=40, seed=2, items_low=5, items_high=14)
with open(workdir / "interactions.tsv", "w") as fh:
    fh.write("user_id\titem_id\n")
    for u, row in enumerate(dataset.rows):
        for i in row:
            fh.write(f"{dataset.user_ids[u]}\t{dataset.item_ids[i]}\n")
with open(workdir / "demographics.tsv", "w") as fh:
    fh.write("user_id\tgender\tage\n")
    for u in range(dataset.n_users):
        fh.write(f"{dataset.user_ids[u]}\t{attrs.gender_labels[attrs.gender[u]]}\t{attrs.age_raw[u]:.4f}\n")

(workdir / "run.conf").write_text(f"""# demo configuration
data.name=demo
data.interactions={workdir}/interactions.tsv
data.demographics={workdir}/demographics.tsv
data.cache={workdir}/demo.cache
data.k_core=2
train.epochs_adversarial=4
train.epochs_attack=4
train.batch_size=32
train.d_hidden=16
train.d_latent=8
train.d_adv_hidden=8
train.val_every=2
train.n_folds=2
train.anneal_steps=50
lambda.gender=0
lambda.age=0
grid.gender=0,50
grid.age=0
out.dir={workdir}/runs
""")


def cli(*args):
    command = [sys.executable, "-m", "advrec.cli", *args, "--config", str(workdir / "run.conf")]
    print(f"\n$ advrec {' '.join(args)}")
    subprocess.run(command, check=True)


cli("preprocess")
cli("train")
cli("attack")
cli("eval")
cli("export-embeddings")
cli("train", "--lambda", "gender=50")
cli("grid", "--workers", "1")

print(f"\nartifacts under {workdir}/runs:")
for path in sorted((workdir / "runs").rglob("*")):
    if path.is_file():
        print(f"  {path.relative_to(workdir)}")

work.cleanup()
