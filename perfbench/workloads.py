"""The benchmark's workloads, each driving aae's public functions.

A workload builds its inputs from the seed in `setup`, then the harness calls
`run_unit(index)` until the measuring window closes. `run_unit` does only
the timed work and returns the seconds it timed; `check_unit` then checks
the unit's outputs, untimed and untraced. A unit's inputs depend only on the
seed and the unit index, so a unit can be repeated with tracing on.
`metrics()` gives the end-to-end metrics every workload reports,
`figures()` the workload's own figures by name and unit, and `samples()`
says what they were computed from.

Every call into aae goes through a module attribute (`classifiers.train`,
not a bound name), so the tracer's wrappers see it.
"""
from __future__ import annotations

import contextlib
import csv
import io
import math
from time import perf_counter

import numpy as np

from aae import active, classifiers, cli, features, graphmodel, nn

# Settings of the acceptance suite: learning rates per architecture.
CNN_ARCHS = (("scnn", 0.02), ("dcnn", 0.03))
ARCHS = ("scnn", "dcnn", "gru")
CORPUS_PROFILES = ("freebase-small", "ldbc", "random")
# Share of index bits set in a drawn storage, and the chance that a
# candidate flips the engine or one index bit.
INDEX_DENSITY = 0.3
FLIP_PROB = 0.5
TOGGLE_PROB = 0.2


class Workload:
    """Shared bookkeeping: operations attempted, failed, and why.

    Every workload counts the input rows its timed calls handled and the
    seconds those calls took; `rows_per_s` is one over the other.
    """

    name = ""

    def __init__(self, seed: int, tiny: bool, workdir):
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.rows = 0
        self.timed_s = 0.0

    def verify(self, problems: list[str]) -> None:
        """Count one operation; it failed if any of its checks failed."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def metrics(self):
        return {"rows_per_s": self.rows / self.timed_s}


class TrainCNN(Workload):
    """Supervised SCNN and DCNN training, a few epochs per unit.

    Each unit trains both networks further, so a run's units form one
    training run whose length follows the window. A unit repeated with
    tracing on trains on too; an epoch costs the same whatever the weights.
    """

    name = "train-cnn"

    def setup(self):
        rows, split = (160, 96) if self.tiny else (2000, 1200)
        self.epochs = 2 if self.tiny else 3
        _, corpus = cli.generate_labeled_corpus("freebase-small", rows,
                                                self.seed)
        self.train_set, self.heldout = corpus[:split], corpus[split:]
        self.nets = [classifiers.build(arch, self.train_set[0].vector.size,
                                       seed=self.seed)
                     for arch, _ in CNN_ARCHS]
        self.first_loss: list[float | None] = [None] * len(CNN_ARCHS)
        self.epochs_run = 0
        self.accuracies: list[float] = []

    def run_unit(self, index):
        self.logs = []
        timed = 0.0
        for net, (arch, lr) in zip(self.nets, CNN_ARCHS):
            start = perf_counter()
            log = classifiers.train(net, self.train_set, epochs=self.epochs,
                                    learning_rate=lr,
                                    seed=self.seed * 1000 + index)
            timed += perf_counter() - start
            self.rows += len(self.train_set) * len(log)
            self.epochs_run += len(log)
            self.logs.append(log)
        self.timed_s += timed
        return timed

    def check_unit(self, index):
        """Losses are finite, and the latest is below the run's first."""
        for i, ((arch, _), log) in enumerate(zip(CNN_ARCHS, self.logs)):
            losses = [row["loss"] for row in log]
            if self.first_loss[i] is None:
                self.first_loss[i] = losses[0]
            first = self.first_loss[i]
            problems = []
            if not all(math.isfinite(loss) for loss in losses):
                problems.append(f"{arch}: non-finite training loss")
            elif not losses[-1] < first:
                problems.append(f"{arch}: latest epoch loss {losses[-1]:.6g} "
                                f"is not below the first {first:.6g}")
            self.verify(problems)
        self.accuracies = [active.evaluate(net, self.heldout)
                           for net in self.nets]

    def figures(self):
        return [("train_rows_per_s", self.rows / self.timed_s,
                 "instance-epochs/s"),
                ("heldout_accuracy", min(self.accuracies), "fraction")]

    def samples(self):
        accs = ", ".join(f"{arch} {acc:.4f}" for (arch, _), acc
                         in zip(CNN_ARCHS, self.accuracies))
        return (f"{self.rows} instance-epochs ({self.epochs_run} epochs over "
                f"both networks) in {self.timed_s:.3f} s; held-out accuracy "
                f"after them {accs} on {len(self.heldout)} rows")


class ActiveGRU(Workload):
    """The criterion-5 active run, called as `aae active` in-process.

    Its wall time follows how many rounds and epochs the seed's data needs,
    so `rows_per_s` divides the rows the run trained on (epochs run times
    labeled rows, summed over rounds) by that wall time; a GRU training row
    costs about the same whatever the round. Rows are counted by a shim on
    `aae.active.train` that times nothing.
    """

    name = "active-gru"
    # Criterion 5 of the acceptance suite spends at most this share of the
    # pool's labels. Reported, not gated: see samples().
    LABEL_TARGET = 0.6

    def setup(self):
        rows = 200 if self.tiny else 2000
        header, self.pool = cli.generate_labeled_corpus(
            "freebase-small", rows, self.seed)
        self.corpus_path = self.workdir / "active-corpus.jsonl"
        self.report_path = self.workdir / "active-rounds.csv"
        self.params_path = self.workdir / "active-net.txt"
        features.write_corpus(self.corpus_path, header, self.pool)
        self.hidden = np.array([inst.label for inst in self.pool])
        self.walls: list[float] = []

    def run_unit(self, index):
        argv = ["active", "--corpus", str(self.corpus_path), "--arch", "gru",
                "--threshold", "0.9", "--sample-fraction", "0.1",
                "--lr", "0.01", "--epochs", "3" if self.tiny else "200",
                "--seed", str(self.seed), "--out", str(self.report_path),
                "--params-out", str(self.params_path)]
        if self.tiny:
            argv += ["--max-rounds", "2"]
        train = active.train
        trained = []

        def counted(net, corpus, **kwargs):
            log = train(net, corpus, **kwargs)
            trained.append(len(log) * len(corpus))
            return log

        active.train = counted
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                start = perf_counter()
                self.exit_code = cli.main(argv)
                wall = perf_counter() - start
        finally:
            active.train = train
        self.walls.append(wall)
        self.rows += sum(trained)
        self.timed_s += wall
        return wall

    def check_unit(self, index):
        pool = len(self.pool)
        if self.exit_code != 0:
            self.verify([f"aae active exited with {self.exit_code}"])
            return
        with open(self.report_path, newline="") as fh:
            rounds = list(csv.DictReader(fh))
        problems = []
        for row in rounds:
            total = sum(int(row[k]) for k in
                        ("labeled", "unlabeled", "retired"))
            if total != pool:
                problems.append(f"round {row['round']}: labeled + "
                                f"unlabeled + retired = {total}, pool {pool}")
        self.labels_used = int(rounds[-1]["labeled"])
        self.rounds = len(rounds)
        net = nn.load_network(self.params_path)
        probs = classifiers.predict_batch(net, self.pool)
        self.pool_accuracy = float(
            ((probs >= 0.5) == (self.hidden == 1)).mean())
        self.verify(problems)

    def figures(self):
        return [("active_wall_s", float(np.median(self.walls)), "s"),
                ("labels_used_frac", self.labels_used / len(self.pool),
                 "fraction"),
                ("pool_accuracy", self.pool_accuracy, "fraction")]

    def samples(self):
        used = self.labels_used / len(self.pool)
        met = "met" if used <= self.LABEL_TARGET else "missed"
        return (f"{len(self.walls)} active run(s); {self.rows} training "
                f"rows; {self.rounds} rounds, "
                f"{self.labels_used}/{len(self.pool)} labels; label target "
                f"<= {self.LABEL_TARGET} {met}")


def _storage(rng, num_properties: int) -> features.StorageConfig:
    engine = features.ENGINES[int(rng.integers(0, 2))]
    bits = tuple(int(b) for b in rng.random(num_properties) < INDEX_DENSITY)
    return features.StorageConfig(engine=engine, index_bits=bits)


def _candidate(rng, s_old: features.StorageConfig) -> features.StorageConfig:
    engine = s_old.engine
    if rng.random() < FLIP_PROB:
        engine = features.ENGINES[1 - features.ENGINES.index(engine)]
    bits = [1 - b if rng.random() < TOGGLE_PROB else b
            for b in s_old.index_bits]
    if engine == s_old.engine and tuple(bits) == s_old.index_bits:
        flip = int(rng.integers(0, len(bits)))
        bits[flip] = 1 - bits[flip]
    return features.StorageConfig(engine=engine, index_bits=tuple(bits))


class ServeLDBC(Workload):
    """Closed-loop migration questions on the ldbc profile, one client.

    A unit is the same work every time: single requests spread evenly over
    the three networks, then one scoring request on each network.
    """

    name = "serve-ldbc"
    SINGLES_PER_UNIT = 48  # rotating over the three architectures
    CANDIDATES = 64  # s_new candidates per scoring request

    def setup(self):
        rng = np.random.default_rng(self.seed)
        self.stats = graphmodel.generate_graph_stats("ldbc", self.seed)
        props = self.stats.num_property_types
        self.max_len = features.LDBC_MAX_LEN
        self.nets = [classifiers.build(arch, self.max_len, seed=self.seed)
                     for arch in ARCHS]

        def workload():
            mix = rng.dirichlet(np.ones(len(graphmodel.CATEGORIES)))
            return graphmodel.generate_workload(
                self.stats, mix, int(rng.integers(0, 2**31)))

        n_singles, n_groups = (16, 4) if self.tiny else (256, 32)
        self.singles = []
        for _ in range(n_singles):
            s_old = _storage(rng, props)
            self.singles.append((workload(), s_old, _candidate(rng, s_old)))
        self.groups = []
        for _ in range(n_groups):
            s_old = _storage(rng, props)
            self.groups.append((workload(), s_old,
                                [_candidate(rng, s_old)
                                 for _ in range(self.CANDIDATES)]))
        for net in self.nets:  # first calls fill lazy caches
            classifiers.predict(net, features.assemble(
                self.stats, *self.singles[0], max_len=self.max_len))
        self.latencies_ms: list[float] = []
        self.score_rows = 0
        self.score_s = 0.0

    def run_unit(self, index):
        singles = []
        timed = 0.0
        for j in range(self.SINGLES_PER_UNIT):
            w, s_old, s_new = self.singles[
                (index * self.SINGLES_PER_UNIT + j) % len(self.singles)]
            net = self.nets[j % len(self.nets)]
            start = perf_counter()
            inst = features.assemble(self.stats, w, s_old, s_new,
                                     max_len=self.max_len)
            prob = classifiers.predict(net, inst)
            elapsed = perf_counter() - start
            timed += elapsed
            self.latencies_ms.append(elapsed * 1e3)
            singles.append(prob)

        scored = []
        for k, net in enumerate(self.nets):
            w, s_old, candidates = self.groups[
                (index * len(self.nets) + k) % len(self.groups)]
            start = perf_counter()
            batch = [features.assemble(self.stats, w, s_old, s_new,
                                       max_len=self.max_len)
                     for s_new in candidates]
            probs = classifiers.predict_batch(net, batch)
            elapsed = perf_counter() - start
            timed += elapsed
            self.score_s += elapsed
            self.score_rows += len(batch)
            scored.append((net, batch, probs))
        self.rows += len(singles) + sum(len(b) for _, b, _ in scored)
        self.timed_s += timed
        self.outputs = (singles, scored)
        return timed

    def check_unit(self, index):
        singles, scored = self.outputs
        for prob in singles:
            self.verify([] if 0.0 < prob < 1.0 else
                        [f"single probability {prob!r} outside (0, 1)"])
        for net, batch, probs in scored:
            problems = []
            if not np.all((probs > 0.0) & (probs < 1.0)):
                problems.append("batch probability outside (0, 1)")
            row = index % len(batch)
            single = classifiers.predict(net, batch[row])
            if abs(single - probs[row]) > 1e-12:
                problems.append(f"predict {single!r} differs from "
                                f"predict_batch row {row} {probs[row]!r}")
            self.verify(problems)

    def figures(self):
        p50, p99 = np.percentile(self.latencies_ms, [50, 99])
        return [("predict_p50_ms", float(p50), "ms"),
                ("predict_p99_ms", float(p99), "ms"),
                ("score_rows_per_s", self.score_rows / self.score_s,
                 "rows/s")]

    def samples(self):
        return (f"{len(self.latencies_ms)} single requests; "
                f"{self.score_rows // self.CANDIDATES} scoring requests of "
                f"{self.CANDIDATES} candidates")


class CorpusGen(Workload):
    """Generate, write and read labeled corpora over three profiles."""

    name = "corpus-gen"

    def setup(self):
        self.rows_per_profile = 20 if self.tiny else 150
        # A small pass first, so lazy imports and caches are paid here.
        for profile in CORPUS_PROFILES:
            self._generate(profile, 30, self.seed, self.workdir / "warm.jsonl")
        self.gen_s = self.load_s = 0.0

    @staticmethod
    def _generate(profile, rows, seed, path):
        header, instances = cli.generate_labeled_corpus(profile, rows, seed)
        features.write_corpus(path, header, instances)
        return header, instances

    def _path(self, profile):
        return self.workdir / f"corpus-{profile}.jsonl"

    def run_unit(self, index):
        self.outputs = []
        gen_s = load_s = 0.0
        for profile in CORPUS_PROFILES:
            seed = self.seed * 1000 + index
            start = perf_counter()
            written = self._generate(profile, self.rows_per_profile, seed,
                                     self._path(profile))
            middle = perf_counter()
            read = features.read_corpus(self._path(profile))
            end = perf_counter()
            gen_s += middle - start
            load_s += end - middle
            self.outputs.append((profile, seed, written, read))
        self.gen_s += gen_s
        self.load_s += load_s
        self.rows += self.rows_per_profile * len(CORPUS_PROFILES)
        self.timed_s += gen_s + load_s
        return gen_s + load_s

    def check_unit(self, index):
        for profile, seed, (header, written), (header_back, read) \
                in self.outputs:
            problems = []
            if header_back != {"format": "aae-corpus-v1", **header}:
                problems.append(f"{profile}: header changed on read-back")
            if len(read) != len(written):
                problems.append(f"{profile}: wrote {len(written)} rows, "
                                f"read {len(read)}")
            else:
                problems += _compare_rows(profile, written, read)
            if index == 0:
                path = self.workdir / "rerun.jsonl"
                self._generate(profile, self.rows_per_profile, seed, path)
                if path.read_bytes() != self._path(profile).read_bytes():
                    problems.append(f"{profile}: rerun with seed {seed} is "
                                    f"not byte-identical")
            self.verify(problems)

    def figures(self):
        return [("gen_rows_per_s", self.rows / self.gen_s, "rows/s"),
                ("load_rows_per_s", self.rows / self.load_s, "rows/s")]

    def samples(self):
        return (f"{self.rows} rows, {self.rows_per_profile} per profile "
                f"and unit")


def _compare_rows(profile, written, read) -> list[str]:
    """Read-back rows equal the written ones, vectors to 9 digits."""
    vec_w = np.stack([inst.vector for inst in written])
    vec_r = np.stack([inst.vector for inst in read])
    problems = []
    if not np.all(np.abs(vec_r - vec_w) <= 1e-8 * np.abs(vec_w)):
        problems.append(f"{profile}: vectors differ beyond 9 digits")
    if not all(np.array_equal(a.mask, b.mask) and a.label == b.label
               and a.provenance == b.provenance
               for a, b in zip(written, read)):
        problems.append(f"{profile}: mask, label or provenance differs")
    return problems


WORKLOADS = {cls.name: cls for cls in (TrainCNN, ActiveGRU, ServeLDBC,
                                       CorpusGen)}
