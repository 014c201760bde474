"""Tests of the benchmark's own parts: inputs, output checks and tracing."""

import ast
import contextlib
import io
import json
import os

import pytest

import bench_checks
import bench_inputs
import bench_trace
import run

HERE = os.path.dirname(os.path.abspath(__file__))


def _cli_output(argv) -> str:
    from bruhat_kit import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv + ["--json"]) == 0
    return out.getvalue()


def _reference(label):
    for workload in bench_inputs.WORKLOADS:
        for job in bench_inputs.reference_jobs(workload):
            if job["label"] == label:
                return job
    raise KeyError(label)


def test_inputs_and_checks_import_nothing_from_the_package():
    for name in ("bench_inputs.py", "bench_checks.py"):
        with open(os.path.join(HERE, name)) as fh:
            tree = ast.parse(fh.read())
        imported = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
        imported += [n.module or "" for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
        assert not [m for m in imported if m.startswith("bruhat_kit")], name


def test_same_seed_gives_same_jobs_and_no_job_twice():
    for workload in ("finite", "operators"):
        jobs = bench_inputs.make_jobs(workload, 3)
        assert jobs == bench_inputs.make_jobs(workload, 3)
        assert jobs != bench_inputs.make_jobs(workload, 4)
        argvs = [tuple(job["argv"]) for job in jobs]
        assert len(set(argvs)) == len(argvs), workload


def test_generator_arithmetic_reproduces_known_counts():
    assert _reference("ref:readme-zeta")["count"] == 8
    assert _reference("ref:rank10-zeta")["count"] == 6210
    assert bench_inputs.zero_bruhat_path_count(*bench_inputs.README_AFFINE) == 240
    assert bench_inputs.zero_bruhat_path_count(*bench_inputs.RANK8_AFFINE) == 23898
    assert _reference("ref:readme-weak")["count"] == 1
    assert bench_checks.hook_length_count((3, 1)) == 3
    assert bench_checks.hook_length_count((3, 2, 1)) == 16


def _set_coeff(fn, delta):
    fn["terms"][0]["coeff"] += delta


MUTATIONS = {
    "ref:readme-zeta": [
        lambda p: _set_coeff(p["K_F"], 1),
        lambda p: p.update(chain_count=p["chain_count"] + 1),
        lambda p: p["chains"].pop(),
        lambda p: p["chains"][0].reverse(),
        # keeps sum c_lam f^lam, so only the sign check can object
        lambda p: p["K_schur"]["terms"].extend([{"index": [4], "coeff": 3},
                                                {"index": [1, 1, 1, 1], "coeff": -3}]),
    ],
    "ref:readme-240": [
        lambda p: _set_coeff(p["K_F"], -1),
        lambda p: _set_coeff(p["K_schur"], 1),
        lambda p: p.update(path_count=239),
    ],
    "ref:readme-weak": [
        lambda p: _set_coeff(p["K_F"], 1),
        lambda p: _set_coeff(p["K_schur"], 1),
    ],
    "ref:readme-kschur": [
        lambda p: p["matrix"][0].__setitem__(1, 1),
        lambda p: p["matrix"][1].__setitem__(1, 2),
        lambda p: _set_coeff(p["inverted"][0]["h_expansion"], 1),
    ],
    "ref:readme-embed": [
        lambda p: p.update(all_nonzero=False),
        lambda p: p.update(K_domination=False),
        lambda p: p.update(chains_mapped=7),
    ],
}


@pytest.mark.parametrize("label", sorted(MUTATIONS))
def test_checker_accepts_real_output_and_rejects_mutations(label):
    job = _reference(label)
    text = _cli_output(job["argv"])
    assert bench_checks.check(job, text) == []
    assert bench_checks.check(job, json.dumps(json.loads(text), indent=1))
    for mutate in MUTATIONS[label]:
        payload = json.loads(text)
        mutate(payload)
        assert bench_checks.check(job, json.dumps(payload, sort_keys=True)), label


def test_checker_rejects_failed_relations():
    job = {"argv": ["relations", "--k", "3", "--rules", "C1", "--sweep", "5", "--seed", "1"],
           "label": "relations:k3"}
    text = _cli_output(job["argv"])
    assert bench_checks.check(job, text) == []
    payload = json.loads(text)
    payload["results"][0]["failures"] = 1
    assert bench_checks.check(job, json.dumps(payload, sort_keys=True))
    payload["ok"] = False
    assert bench_checks.check(job, json.dumps(payload, sort_keys=True))


def _traced_counts(jobs):
    from bruhat_kit import affinegraph, cli

    original = affinegraph.out_edges
    run.clear_caches()
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        for i, job in enumerate(jobs):
            tracer.job = i
            assert run.run_job(cli, job["argv"])[1] == 0
    finally:
        tracer.uninstall()
    assert affinegraph.out_edges is original
    metrics = tracer.metrics(overhead_ratio=1.0)
    return {k: v["value"] for k, v in metrics.items() if not k.endswith("self_s")}


def test_traced_counts_repeat_exactly():
    jobs = [_reference(label) for label in ("ref:readme-zeta", "ref:readme-240", "ref:readme-embed")]
    first = _traced_counts(jobs)
    assert first["affinegraph.paths.items"] == 240
    assert first["rbruhat.all_chains.per_job"] == 2.0
    assert first["embedding.build_embedding.calls"] == 1
    assert _traced_counts(jobs) == first


def test_benchmark_json_names_the_reported_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in bench["end_to_end"]] == list(run.END_TO_END.values())
    assert {m["name"]: {"unit": m["unit"], "better": m["better"]}
            for m in bench["per_layer"]} == bench_trace.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(bench_inputs.WORKLOADS)
