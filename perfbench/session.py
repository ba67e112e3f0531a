"""One user session in a fresh interpreter: the build, verify and sample steps.

Usage (run.py starts it):
  python3 perfbench/session.py ROOT WORKLOAD SEED TRACE PART:SPEC_PATH...

PART is the index of the workload part that generated the spec.

Before the set-up clock starts, only modules the interpreter has already
loaded at start-up are imported, so ``setup_s`` pays the package's own
imports the way a CLI call does.  Prints one JSON object: stage times,
sample batches, check results, hashes and, when traced, spans and counts.
"""
import sys
import time
from contextlib import contextmanager, nullcontext

BATCH = 100  # samples per timed batch


def main(argv: list[str]) -> None:
    root, workload_name, seed_text, trace_text, *spec_items = argv
    sys.path.insert(0, root + "/src")
    sys.path.insert(1, root + "/perfbench")

    start = time.perf_counter()
    import json

    import windowcoupling
    from windowcoupling import jsonio

    tracer = None
    if trace_text == "1":
        from tracer import Tracer

        tracer = Tracer(f"{workload_name}-{seed_text}")
        tracer.install()
    specs = []  # (part index, parsed spec, whether it is a metric law sequence)
    with stage(tracer, "setup"):
        for item in spec_items:
            part, path = item.split(":", 1)
            with open(path, encoding="utf-8") as fh:
                doc = json.loads(fh.read())
            # the document kind picks the parser, as the CLI subcommand would
            metric = "model" in doc
            parse = jsonio.law_sequence_from_doc if metric else jsonio.sequence_from_doc
            with stage(tracer, "jsonio.parse_spec"):
                specs.append((int(part), parse(doc), metric))
    setup_s = time.perf_counter() - start

    import resource

    from workloads import WORKLOADS

    parts = WORKLOADS[workload_name].parts
    session = Session(int(seed_text), tracer)
    for index, (part, spec, metric) in enumerate(specs):
        try:
            session.run_plan(f"plan {index}", parts[part], spec, metric)
        except Exception as exc:  # a broken plan counts as one failed operation
            session.gate.check(f"plan {index}", f"raised {type(exc).__name__}: {exc}")

    gate = session.gate
    result = {
        "setup_s": setup_s,
        **session.times,
        "plan_bytes": sum(len(text.encode("utf-8")) for text in session.texts),
        "batches": session.batches,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "failures": gate.failures,
        "checks_run": gate.checks_run,
        "checks_failed": gate.checks_failed,
        "plan_sha256": session.plan_hash.hexdigest(),
        "samples_sha256": session.sample_hash.hexdigest(),
        "version": windowcoupling.__version__,
    }
    if tracer is not None:
        tracer.uninstall()
        from counts import plan_counts

        result["trace_id"] = tracer.trace_id
        result["spans"] = tracer.spans
        result["counts"] = plan_counts(session.plans)
    sys.stdout.write(json.dumps(result) + "\n")


class Session:
    """Runs the CLI steps on each spec and accumulates times, checks and hashes."""

    def __init__(self, seed: int, tracer) -> None:
        import hashlib

        self.seed = seed
        self.tracer = tracer
        self.gate = Gate()
        self.times = {"build_s": 0.0, "load_s": 0.0, "audit_s": 0.0}
        self.batches: list[tuple[int, float]] = []  # (samples, seconds)
        self.texts: list[str] = []
        self.plan_hash = hashlib.sha256()
        self.sample_hash = hashlib.sha256()
        self.plans: list[tuple] = []  # kept for the counts of a traced run only

    def run_plan(self, where: str, part, spec, metric: bool) -> None:
        import json
        import random

        from windowcoupling import engine, jsonio, skorohod, streams, verify
        from workloads import DEPTH, ORACLE_CAP

        seed, tracer, gate = self.seed, self.tracer, self.gate

        # -- build / skorohod: spec to canonical plan text
        t = time.perf_counter()
        with stage(tracer, "build"):
            if metric:
                built = skorohod.build_skorohod_coupling(spec.model, spec, DEPTH)
                plan = built.plan
            else:
                built = plan = engine.build_plan(spec)
            text = jsonio.canonical_dumps(jsonio.plan_to_doc(plan))
        self.times["build_s"] += time.perf_counter() - t
        gate.check(f"{where}: build", None)
        if part.schedule_check is not None:
            gate.check(
                f"{where}: schedule shape",
                part.schedule_check(plan.schedule.windows, plan.sequence.space.width),
            )

        # -- verify / sample: plan text to a ready sampler
        t = time.perf_counter()
        with stage(tracer, "load"):
            with stage(tracer, "jsonio.loads"):
                doc = json.loads(text)
            loaded = jsonio.plan_from_doc(doc)
            sampler = engine.CouplingSampler(loaded)
        self.times["load_s"] += time.perf_counter() - t

        # -- verify / skorohod: exact audit, MC guard, and the oracle, which
        # like the CLI's gives up when the joint support exceeds the cap
        t = time.perf_counter()
        with stage(tracer, "audit"):
            target = built if metric else loaded
            audit = (verify.audit_skorohod if metric else verify.audit_plan)(target)
            mc = verify.mc_agreement(target, part.mc_samples, seed)
            laws = built.digit_sequence if metric else spec
            try:
                oracle = oracle_witness(engine, loaded, laws, ORACLE_CAP)
                oracle_ran = True
            except engine.EnumerationCapError:
                oracle_ran = False
        self.times["audit_s"] += time.perf_counter() - t
        gate.report(f"{where}: exact audit", audit.exact_checks)
        gate.report(f"{where}: MC guard", mc.mc_checks)
        if oracle_ran:
            gate.check(f"{where}: oracle marginals", oracle)

        # -- sample: replayable records, timed in fixed-size batches
        count = part.draws
        lines = []
        with stage(tracer, "sample"):
            for first in range(0, count, BATCH):
                t = time.perf_counter()
                for i in range(first, min(first + BATCH, count)):
                    derived = streams.derive_seed(seed, "sample", i)
                    draw = sampler.sample(streams.stream(seed, "sample", i))
                    lines.append(jsonio.compact_dumps(jsonio.sample_record(loaded, draw, derived)))
                self.batches.append((len(lines) - first, time.perf_counter() - t))

        # -- replay checks, outside every timed stage and every span
        with paused(tracer):
            resaved = jsonio.canonical_dumps(jsonio.plan_to_doc(loaded))
            gate.check(
                f"{where}: reload re-serializes identically",
                None if resaved == text else "loaded plan serializes to different bytes",
            )
            witness = None
            for i in sorted({0, 1, 2, count // 2, count - 1}):
                derived = streams.derive_seed(seed, "sample", i)
                draw = sampler.sample(random.Random(derived))
                if jsonio.compact_dumps(jsonio.sample_record(loaded, draw, derived)) != lines[i]:
                    witness = f"sample {i} differs when redrawn from seed {derived}"
                    break
            gate.check(f"{where}: samples replay from their derived seed", witness)

        self.texts.append(text)
        self.plan_hash.update(text.encode("utf-8"))
        for line in lines:
            self.sample_hash.update(line.encode("utf-8") + b"\n")
        if tracer is not None:
            self.plans.append((built if metric else None, loaded, text))


class Gate:
    """Counts operations; one fails on an exception or a failed check."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.checks_run = 0
        self.checks_failed = 0

    def check(self, what: str, witness: str | None) -> None:
        self.attempted += 1
        if witness is not None:
            self.failed += 1
            self.failures.append(f"{what}: {witness}")

    def report(self, what: str, checks) -> None:
        """One operation made of a report's exact or MC checks."""
        failing = [c.name for c in checks if not c.passed]
        self.checks_run += len(checks)
        self.checks_failed += len(failing)
        self.check(what, ", ".join(failing) if failing else None)


def oracle_witness(engine, plan, laws, cap: int) -> str | None:
    """Enumerate the joint law; None when every marginal equals its input law."""
    joint = engine.exact_joint_law(plan, cap)
    if joint.total_mass != 1:
        return f"joint mass {joint.total_mass}"
    for n in range(1, plan.count + 1):
        if joint.marginal_member(n) != laws.member(n):
            return f"component {n} marginal differs from its input law"
    if joint.marginal_limit() != laws.limit:
        return "limit marginal differs from the input limit law"
    if joint.index_marginal() != plan.index_law:
        return "index marginal differs from the index law"
    if joint.agreement_mass() != 1:
        return f"agreement event has mass {joint.agreement_mass()}"
    return None


def stage(tracer, name: str):
    return nullcontext() if tracer is None else tracer.span(name)


@contextmanager
def paused(tracer):
    """Stop recording spans for work that no metric should count."""
    if tracer is None:
        yield
        return
    tracer.enabled = False
    try:
        yield
    finally:
        tracer.enabled = True


if __name__ == "__main__":
    main(sys.argv[1:])
