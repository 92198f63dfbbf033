"""CLI plumbing: config validation, determinism, artifact formats."""

import csv
import importlib.util
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import gafzeros
from gafzeros import EventKind, GafModel, events, experiments, models
from gafzeros.cli import main
from gafzeros.experiments import EXPERIMENTS, ConfigError, RunConfig, emit_csv
from gafzeros.zeros import REPLICA_BLOCK


def write_config(tmp_path, name, data):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestConfigValidation:
    def test_missing_seed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"experiment": "kappa", "r": 0.5})
        rc = main(["kappa", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 2
        assert "config.seed" in capsys.readouterr().err

    def test_unknown_experiment_in_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {"experiment": "nope", "seed": 1})
        rc = main(["kappa", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 2

    def test_subcommand_mismatch(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json",
                           {"experiment": "kappa", "seed": 1, "r": 0.5})
        rc = main(["scatter", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 2
        assert "does not match" in capsys.readouterr().err

    def test_field_path_in_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json",
                           {"experiment": "exact-tail", "seed": 1,
                            "ensemble": "ginibre", "r": 1.0, "m_min": 5, "m_max": 2})
        rc = main(["exact-tail", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 2
        assert "config.m_max" in capsys.readouterr().err

    def test_bad_json(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        rc = main(["kappa", "--config", str(p), "--out", str(tmp_path)])
        assert rc == 2

    def test_numeric_failure_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json",
                           {"experiment": "event-bound", "seed": 1,
                            "kind": "moderate-grouped", "r": 1.5,
                            "alpha": 1.5, "gamma": 1.0})
        rc = main(["event-bound", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 3
        assert "numeric failure" in capsys.readouterr().err

    @pytest.mark.parametrize("m", [3, 20])
    def test_domination_constant_overflow_exit_code(self, tmp_path, capsys, m):
        # at rho=1000, r=0.9 the tail past m outweighs the m-th weight by
        # more than e^709
        data = {"experiment": "event-bound", "kind": "hyperbolic-domination",
                "rho": 1000.0, "r": 0.9, "m": m}
        assert run_cli(tmp_path, data) == 3
        err = capsys.readouterr().err
        assert "numeric failure" in err and "overflows a float" in err

    def test_scatter_anchor_past_float_range_exit_code(self, tmp_path, capsys):
        # r^m overflows a float at r = 20, m = 400; the run ends with its
        # numeric failure (the degree-587 root solve), not a traceback
        data = {"experiment": "scatter", "r": 20.0, "m": 400}
        assert run_cli(tmp_path, data) in (0, 3)
        assert "Traceback" not in capsys.readouterr().err

    def test_arithmetic_error_exit_code(self, tmp_path, capsys, monkeypatch):
        # an OverflowError raised in a runner is a numeric failure, not a traceback
        def overflow(*args, **kwargs):
            raise OverflowError("math range error")

        monkeypatch.setattr(experiments, "_replica_counts", overflow)
        data = {"experiment": "intensity-check", "model": "planar", "r": 40.0, "samples": 2}
        assert run_cli(tmp_path, data) == 3
        err = capsys.readouterr().err
        assert "numeric failure" in err and "math range error" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("data,message", [
        ({"kind": "very-large-domination", "r": 3.0, "alpha": 1.5, "gamma": 1.0},
         "very-large regime needs alpha > 2"),
        ({"kind": "hyperbolic-domination", "rho": 1.0, "r": 1.5, "m": 5},
         "need 0 < r < 1"),
    ])
    def test_out_of_regime_event_is_a_config_error(self, tmp_path, capsys, data, message):
        assert run_cli(tmp_path, {"experiment": "event-bound", **data}) == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err

    @pytest.mark.parametrize("data,message", [
        ({"experiment": "exact-tail", "ensemble": "hyperbolic-one", "r": [0.5, 1.0],
          "m_min": 0, "m_max": 3}, "hyperbolic radial law needs r < 1"),
        ({"experiment": "exponent-fit", "ensemble": "hyperbolic-one", "r": 1.0,
          "m_grid": [3, 4, 5]}, "hyperbolic radial law needs r < 1"),
        ({"experiment": "mc-tail", "target": "hyperbolic-one", "r": 1.0, "m": 1,
          "trials": 2}, "hyperbolic radial law needs r < 1"),
        ({"experiment": "mc-tail", "target": "hyperbolic", "rho": 1.0, "r": 1.0, "m": 1,
          "trials": 2}, "hyperbolic model lives in the open unit disk"),
        ({"experiment": "intensity-check", "model": "hyperbolic", "rho": 1.0, "r": 1.5,
          "samples": 2}, "hyperbolic model lives in the open unit disk"),
    ], ids=["exact-tail", "exponent-fit", "mc-tail-hyperbolic-one", "mc-tail-hyperbolic",
            "intensity-check"])
    def test_hyperbolic_radius_off_the_disk_is_a_config_error(self, tmp_path, capsys,
                                                              monkeypatch, data, message):
        # the radius is checked before any work starts: no tail, draw or count runs
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the radius was checked")

        monkeypatch.setattr(experiments.radial, "tail_log_brackets", no_work)
        monkeypatch.setattr(experiments.events, "direct_mc_tail", no_work)
        monkeypatch.setattr(experiments, "_replica_counts", no_work)
        assert run_cli(tmp_path, data) == 2
        err = capsys.readouterr().err
        assert "config error" in err and f"config.r: {message}" in err

    @pytest.mark.parametrize("data,key", [
        ({"experiment": "intensity-check", "model": "planar", "r": 1e-170, "samples": 2}, "r"),
        ({"experiment": "mc-tail", "target": "planar", "r": 1e-170, "m": 1, "trials": 2}, "r"),
        ({"experiment": "mc-tail", "target": "hyperbolic", "rho": 1.0, "r": 1e-170, "m": 1,
          "trials": 2}, "r"),
        ({"experiment": "mc-tail", "target": "ginibre", "r": 1e-170, "m": 1, "trials": 2}, "r"),
        ({"experiment": "exact-tail", "ensemble": "ginibre", "r": 1e-170, "m_min": 0,
          "m_max": 3}, "r"),
        ({"experiment": "jensen-check", "r_min": 1e-170, "trials": 2}, "r_min"),
        ({"experiment": "scatter", "r": 1e-170, "m": 2}, "r"),
    ], ids=["intensity-check", "mc-tail-planar", "mc-tail-hyperbolic", "mc-tail-ginibre",
            "exact-tail", "jensen-check", "scatter"])
    def test_radius_whose_square_underflows_is_a_config_error(self, tmp_path, capsys,
                                                             monkeypatch, data, key):
        # r*r below the least normal float is checked before any work starts
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the radius was checked")

        monkeypatch.setattr(experiments.radial, "tail_log_brackets", no_work)
        monkeypatch.setattr(experiments.events, "direct_mc_tail", no_work)
        monkeypatch.setattr(experiments, "_replica_counts", no_work)
        monkeypatch.setattr(experiments, "_map_blocks", no_work)
        monkeypatch.setattr(experiments.events, "build_event", no_work)
        assert run_cli(tmp_path, data) == 2
        err = capsys.readouterr().err
        assert f"config.{key}: radius must be >= 1.49167e-154 = 2^-511" in err

    def test_least_radius_counts(self, tmp_path, capsys):
        # just above the bound every replica resolves, with no zero in the disk
        data = {"experiment": "intensity-check", "model": "planar", "r": 1.5e-154,
                "samples": 3}
        assert run_cli(tmp_path, data) == 0
        with open(tmp_path / "out" / "intensity_check.csv") as fh:
            (row,) = list(csv.DictReader(fh))
        assert (row["resolved"], row["mean_count"]) == ("3", "0")


# smallest valid fields of the experiments that have optional fields
BASE = {
    "scatter": {"r": 1.0, "m": 2},
    "mc-tail": {"target": "planar", "r": 1.0, "m": 1, "trials": 2},
    "exponent-fit": {"ensemble": "ginibre", "r": 1.0, "m_grid": [3, 4, 5]},
    "jensen-check": {"trials": 2},
    "intensity-check": {"model": "planar", "r": 1.0, "samples": 2},
    "kappa": {"r": 0.5},
}

# (experiment, optional field, a value of the wrong type, an out-of-range value)
OPTIONAL_FIELDS = [
    ("scatter", "samples", "2", 0),
    ("scatter", "anchor_alpha", True, -1.0),
    ("exponent-fit", "basis", 1, "r2alpha-logr"),
    ("jensen-check", "r_min", "0.5", 0.0),
    ("jensen-check", "r_max", None, 0.4),
    ("kappa", "grid_points", 10.0, 0),
]

# (experiment, field, the value it took by default) of the fields that are
# library constants now: zeros.TAIL_GUARD, events.MC_LEVEL, zeros.MEAN_TOL,
# experiments.JENSEN_RADIUS_RATIO and the scatter clip 3r
REMOVED_FIELDS = [
    ("scatter", "clip_radius", 3.0),
    ("mc-tail", "level", 0.99),
    ("mc-tail", "tail_guard", 100.0),
    ("jensen-check", "radius_ratio", 1.25),
    ("jensen-check", "quad_tol", 1e-8),
    ("jensen-check", "tail_guard", 100.0),
    ("intensity-check", "tail_guard", 100.0),
]


def run_cli(tmp_path, data):
    cfg = write_config(tmp_path, "c.json", {"seed": 1, **data})
    return main([data["experiment"], "--config", cfg, "--out", str(tmp_path / "out")])


class TestFieldReader:
    @pytest.mark.parametrize("experiment,key,wrong_type,out_of_range", OPTIONAL_FIELDS,
                             ids=[f"{e}-{k}" for e, k, *_ in OPTIONAL_FIELDS])
    def test_optional_field_is_checked(self, tmp_path, capsys, experiment, key,
                                       wrong_type, out_of_range):
        for value in (wrong_type, out_of_range):
            data = {"experiment": experiment, **BASE[experiment], key: value}
            assert run_cli(tmp_path, data) == 2, value
            assert f"config.{key}:" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment,key,value", REMOVED_FIELDS,
                             ids=[f"{e}-{k}" for e, k, _ in REMOVED_FIELDS])
    def test_removed_field_is_a_config_error(self, tmp_path, capsys, experiment, key, value):
        # even at the value of its constant, a removed field fails loudly
        data = {"experiment": experiment, **BASE[experiment], key: value}
        assert run_cli(tmp_path, data) == 2
        assert f"config.{key}: not a field {experiment} reads" in capsys.readouterr().err
        assert not list((tmp_path / "out").glob("*.csv"))

    @pytest.mark.parametrize("key", ["m", "seed", "threads"])
    def test_bool_is_not_a_number(self, tmp_path, capsys, key):
        assert run_cli(tmp_path, {"experiment": "scatter", "r": 1.0, "m": 2, key: True}) == 2
        assert f"config.{key}:" in capsys.readouterr().err

    @pytest.mark.parametrize("data", [
        {"experiment": "exact-tail", "ensemble": "ginibre", "r": [1.0, 0.0],
         "m_min": 1, "m_max": 3},
        {"experiment": "event-bound", "kind": "planar-domination", "r": [-1.0], "m": 3},
    ])
    def test_radius_list_must_be_positive(self, tmp_path, capsys, data):
        assert run_cli(tmp_path, data) == 2
        assert "config.r:" in capsys.readouterr().err

    def test_jensen_check_default_r_max_must_exceed_r_min(self, tmp_path, capsys):
        # an absent r_max takes its default 3.0, which r_min = 4 leaves below
        data = {"experiment": "jensen-check", "trials": 3, "r_min": 4.0}
        assert run_cli(tmp_path, data) == 2
        assert "config.r_max: must be > r_min" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out" / "jensen_check.csv")

    @pytest.mark.parametrize("data,key", [
        ({"experiment": "kappa", "r": 0.5, "grid_ponts": 10}, "grid_ponts"),
        ({"experiment": "mc-tail", "target": "ginibre", "r": 0.5, "m": 1, "trials": 10,
          "tail_guard": 5.0}, "tail_guard"),
        ({"experiment": "event-bound", "kind": "planar-domination", "r": 1.0, "m": 3,
          "rho": 1.0}, "rho"),
    ])
    def test_unread_field_is_a_config_error(self, tmp_path, capsys, data, key):
        # a misspelt field, and fields the experiment reads only for other configs
        assert run_cli(tmp_path, data) == 2
        assert f"config.{key}:" in capsys.readouterr().err
        assert not list((tmp_path / "out").glob("*.csv"))

    def test_exponent_fit_rejects_repeated_m(self, tmp_path, capsys):
        data = {"experiment": "exponent-fit", "ensemble": "ginibre", "r": 1.0,
                "m_grid": [3, 4, 4]}
        assert run_cli(tmp_path, data) == 2
        assert "config.m_grid:" in capsys.readouterr().err

    def test_intensity_check_with_no_resolved_replica(self, tmp_path, capsys, monkeypatch):
        # a floor above every |f| on the circle leaves each replica unresolved
        monkeypatch.setattr(experiments.zeros, "TAIL_GUARD", 1e300)
        data = {"experiment": "intensity-check", "model": "planar", "r": 1.0, "samples": 3}
        assert run_cli(tmp_path, data) == 3
        err = capsys.readouterr().err
        assert "numeric failure" in err and "3 of 3 replicas unresolved" in err


# tiny configs that take every branch of the field reads of each experiment
TINY = [
    {"experiment": "scatter", "r": 1.0, "m": 2},
    {"experiment": "mc-tail", "target": "planar", "r": 0.5, "m": 1, "trials": 2},
    {"experiment": "mc-tail", "target": "hyperbolic", "rho": 2.0, "r": 0.5, "m": 1,
     "trials": 2},
    {"experiment": "mc-tail", "target": "ginibre", "r": 0.5, "m": 1, "trials": 10},
    {"experiment": "exact-tail", "ensemble": "ginibre", "r": 1.0, "m_min": 1, "m_max": 3},
    {"experiment": "event-bound", "kind": "planar-domination", "r": 1.0, "m": 3},
    {"experiment": "event-bound", "kind": "hyperbolic-domination", "rho": 1.0, "r": 0.5,
     "m": 3},
    {"experiment": "event-bound", "kind": "very-large-domination", "r": 2.0, "alpha": 3.0,
     "gamma": 1.0},
    {"experiment": "event-bound", "kind": "moderate-grouped", "r": 8.0, "alpha": 1.5,
     "gamma": 1.0},
    {"experiment": "exponent-fit", "ensemble": "ginibre", "r": 1.0, "m_grid": [3, 4, 5]},
    {"experiment": "jensen-check", "trials": 2},
    {"experiment": "intensity-check", "model": "hyperbolic", "rho": 2.0, "r": 0.5,
     "samples": 2},
    {"experiment": "kappa", "r": 0.5, "grid_points": 10},
]


def schema_sections():
    """Field names in the tables of each ``## `name` `` section of the config schema."""
    path = os.path.join(os.path.dirname(__file__), "..", "docs", "config_schema.md")
    with open(path) as fh:
        text = fh.read()
    sections = {}
    for part in re.split(r"^## ", text, flags=re.M)[1:]:
        title, _, body = part.partition("\n")
        fields = set()
        for line in body.splitlines():
            if line.startswith("|"):
                fields |= set(re.findall(r"`([^`]+)`", line.split("|")[1]))
        sections[title.strip().strip("`")] = fields
    return sections


class TestSchemaDocs:
    def test_every_field_read_is_documented(self, tmp_path, monkeypatch):
        # both ways: each section lists exactly the fields its runner reads,
        # so a row left behind for a removed field fails too
        read = RunConfig.read
        seen = {}

        def recording(self, key, *args, **kwargs):
            seen.setdefault(self.experiment, set()).add(key)
            return read(self, key, *args, **kwargs)

        monkeypatch.setattr(RunConfig, "read", recording)
        for i, data in enumerate(TINY):
            cfg = RunConfig.from_dict({"seed": 1, **data})
            assert experiments.run(cfg, str(tmp_path / str(i)))
        sections = schema_sections()
        assert set(seen) == set(EXPERIMENTS)
        for name in EXPERIMENTS:
            assert name in sections, f"docs/config_schema.md has no section for {name}"
            assert seen[name] == sections[name], (name, seen[name] ^ sections[name])


class TestDeterminism:
    def test_exact_tail_reruns_identically(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json",
                           {"experiment": "exact-tail", "seed": 5,
                            "ensemble": "ginibre", "r": [1.0], "m_min": 2,
                            "m_max": 8})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["exact-tail", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["exact-tail", "--config", cfg, "--out", str(out2)]) == 0
        assert read_bytes(out1 / "exact_tail.csv") == read_bytes(out2 / "exact_tail.csv")

    def test_threads_do_not_change_output(self, tmp_path, capsys):
        # past one chunk, so that --threads 3 runs the chunks in a process pool
        n = REPLICA_BLOCK + 300
        for base, artifact in (
                ({"experiment": "mc-tail", "seed": 9, "target": "planar",
                  "r": 1.0, "m": 2, "trials": n}, "mc_tail.csv"),
                ({"experiment": "intensity-check", "seed": 9, "model": "hyperbolic",
                  "rho": 2.0, "r": 0.6, "samples": n}, "intensity_check.csv")):
            name = base["experiment"]
            cfg1 = write_config(tmp_path, "t1.json", dict(base, threads=1))
            cfg2 = write_config(tmp_path, "t2.json", dict(base, threads=1))
            out1, out2 = tmp_path / name / "a", tmp_path / name / "b"
            assert main([name, "--config", cfg1, "--out", str(out1)]) == 0
            assert main([name, "--config", cfg2, "--out", str(out2),
                         "--threads", "3"]) == 0
            assert read_bytes(out1 / artifact) == read_bytes(out2 / artifact)


    def test_worker_results_keep_block_order(self):
        # rows are joined in the order _map_blocks returns, with no sort
        total = 3 * REPLICA_BLOCK + 5
        serial = experiments._map_blocks(repr, total, 1)
        assert serial == [repr(range(b * REPLICA_BLOCK, min((b + 1) * REPLICA_BLOCK, total)))
                          for b in range(4)]
        assert experiments._map_blocks(repr, total, 2) == serial


class TestArtifacts:
    def test_scatter_two_point_sets(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json",
                           {"experiment": "scatter", "seed": 3, "r": 2.0,
                            "m": 16, "anchor_alpha": 0.5, "samples": 1})
        assert main(["scatter", "--config", cfg, "--out", str(tmp_path)]) == 0
        with open(tmp_path / "scatter.csv") as fh:
            rows = list(csv.DictReader(fh))
        sets = {row["point_set"] for row in rows}
        assert sets == {"conditioned", "unconditioned"}

    def test_exact_tail_containment_column(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json",
                           {"experiment": "exact-tail", "seed": 5,
                            "ensemble": "hyperbolic-one", "r": [0.5],
                            "m_min": 1, "m_max": 10})
        assert main(["exact-tail", "--config", cfg, "--out", str(tmp_path)]) == 0
        with open(tmp_path / "exact_tail.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(row["contained"] == "true" for row in rows)

    def test_log_space_policy(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json",
                           {"experiment": "mc-tail", "seed": 2,
                            "target": "ginibre", "r": 0.5, "m": 4,
                            "trials": 20000})
        assert main(["mc-tail", "--config", cfg, "--out", str(tmp_path)]) == 0
        with open(tmp_path / "mc_tail.csv") as fh:
            header = fh.readline().strip().split(",")
        assert {"log_p", "log_lo", "log_hi"} <= set(header)
        assert not any(h in ("p", "prob", "probability") for h in header)

    def test_kappa_experiment(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json",
                           {"experiment": "kappa", "seed": 1, "r": [0.5],
                            "grid_points": 10**5})
        assert main(["kappa", "--config", cfg, "--out", str(tmp_path)]) == 0
        with open(tmp_path / "kappa.csv") as fh:
            row = list(csv.DictReader(fh))[0]
        assert abs(float(row["abs_diff"])) < 1e-6

    def test_rows_carry_hash_and_seed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json",
                           {"experiment": "kappa", "seed": 77, "r": 0.4,
                            "grid_points": 10**4})
        assert main(["kappa", "--config", cfg, "--out", str(tmp_path)]) == 0
        with open(tmp_path / "kappa.csv") as fh:
            row = list(csv.DictReader(fh))[0]
        assert row["seed"] == "77"
        assert len(row["config_hash"]) == 12


class TestEmitCsv:
    def test_header_only(self, tmp_path):
        p = emit_csv(str(tmp_path / "x.csv"), ["a", "b"], [])
        assert read_bytes(p) == b"a,b\n"

    def test_round_trip_precision(self, tmp_path):
        vals = [math.pi, 1.0 / 3.0, 6.02e23, -1e-300]
        p = emit_csv(str(tmp_path / "x.csv"), ["v"], [[v] for v in vals])
        with open(p) as fh:
            back = [float(r["v"]) for r in csv.DictReader(fh)]
        assert back == vals

    def test_lf_endings(self, tmp_path):
        p = emit_csv(str(tmp_path / "x.csv"), ["v"], [[1.5]])
        assert b"\r" not in read_bytes(p)

    def test_cell_text(self, tmp_path):
        # the text of every cell type the runners write, and the fallbacks
        row = [True, False, np.bool_(True), np.bool_(False), 0.1, np.float64(2.0 / 3.0),
               float("nan"), float("inf"), -float("inf"), -0.0, np.float64(-0.0), 7, -3,
               np.int64(12), "planar", np.float32(0.5)]
        p = emit_csv(str(tmp_path / "x.csv"), [f"c{i}" for i in range(len(row))], [row])
        assert read_bytes(p).split(b"\n")[1] == (
            b"true,false,true,false,0.10000000000000001,0.66666666666666663,"
            b"nan,inf,-inf,-0,-0,7,-3,12,planar,0.5")

    def test_width_mismatch(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv(str(tmp_path / "x.csv"), ["a", "b"], [[1.0]])


class TestRunConfig:
    def test_seed_override(self):
        cfg = RunConfig.from_dict({"experiment": "kappa", "seed": 1, "r": 0.5},
                                  seed_override=42)
        assert cfg.seed == 42

    def test_threads_must_be_positive(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"experiment": "kappa", "seed": 1, "threads": 0})


def _load_benchmark_module(name):
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchmarkTracer:
    def test_tracer_installs_and_records_event_spans(self):
        # the benchmark's tracer wraps every public function at each module
        # that binds it once gafzeros.experiments is loaded (imported above),
        # and refuses to install if events stops binding count_with_retry
        tracer = _load_benchmark_module("tracer").Tracer()
        tracer.install()
        try:
            for kind, kw in (
                    (EventKind.PLANAR_DOMINATION, {"r": 2.0, "m": 10}),
                    (EventKind.HYPERBOLIC_DOMINATION,
                     {"model": GafModel.hyperbolic(2.0), "r": 0.5, "m": 10}),
                    (EventKind.VERY_LARGE_DOMINATION, {"r": 2.0, "alpha": 3.0, "gamma": 1.0}),
                    (EventKind.MODERATE_GROUPED, {"r": 8.0, "alpha": 1.5, "gamma": 1.0})):
                events.event_log_prob_detail(events.build_event(kind, **kw))
            ev = events.build_event(EventKind.PLANAR_DOMINATION, r=1.0, m=3)
            sample = events.conditioned_sample(ev, models.stream(5, 0))
            (res,) = events.certified_event_count(ev, [sample])
            # a call through the binding of zeros.count_with_retry in events is
            # traced, and the probe reads the 0 of its (CountResult, 0) pair
            gaf = models.TruncatedGaf(ev.model, sample, ev.r)
            floor = events.event_tail_sup_bound(ev, gaf.degree)
            one, _ = events.count_with_retry(gaf, ev.r, floor)
            # the benchmark's false share reads one bool per verdict
            events.verify_domination(ev, sample)
        finally:
            tracer.uninstall()
        calls, _, _ = tracer.self_times()
        assert calls["events.build_event"] == 5
        assert calls["events.event_log_prob_detail"] == 4
        assert calls["events.certified_event_count"] == 1
        assert calls["zeros.count_with_retry"] == 1
        assert tracer.counts["zeros.count_with_retry"] == [0]
        assert calls["events.verify_domination"] == 1
        (verdict,) = tracer.counts["events.verify_domination"]
        assert type(verdict) is bool and verdict == events.verify_domination(ev, sample)
        assert res.count == 3 and one == res
        assert not hasattr(events.build_event, "__wrapped__")
        assert not hasattr(events.count_with_retry, "__wrapped__")

    @pytest.mark.parametrize("workload", ["roots-jensen", "exact-tails"])
    def test_tiny_workloads_run_clean_under_the_tracer(self, workload, tmp_path):
        # a public name that collides with a tracer probe, or a probe that
        # fails on what it reads, shows here and not first in a benchmark run
        workloads = _load_benchmark_module("workloads")
        tracer = _load_benchmark_module("tracer").Tracer()
        tracer.install()
        try:
            for i, cfg in enumerate(workloads.configs(workload, 1, tiny=True)):
                experiments.run(RunConfig.from_dict(cfg), str(tmp_path / str(i)))
        finally:
            tracer.uninstall()
        assert dict(tracer.errors) == {}
        metrics = tracer.layer_metrics(1.0)
        assert all(math.isfinite(v) for v in metrics.values())
        if workload == "roots-jensen":
            assert metrics["events.verify_domination.calls"] > 0


class TestBenchmarkOutputChecks:
    def _check(self, workloads, cfg, out_dir):
        paths = experiments.run(RunConfig.from_dict(cfg), str(out_dir))
        csvs = {}
        for path in paths:
            with open(path) as fh:
                csvs[os.path.basename(path)] = fh.read()
        return workloads.check(cfg, csvs)

    def test_exact_tails_pass_has_no_failed_item(self, tmp_path):
        # the full-size pass: every exact-tail row contained, every bracket
        # ordered, every price a finite log probability
        workloads = _load_benchmark_module("workloads")
        for i, cfg in enumerate(workloads.configs("exact-tails", seed=1)):
            assert self._check(workloads, cfg, tmp_path / str(i)) == (0, []), cfg

    def test_roots_jensen_smoke_pass_has_no_problem(self, tmp_path):
        workloads = _load_benchmark_module("workloads")
        for i, cfg in enumerate(workloads.configs("roots-jensen", seed=1, tiny=True)):
            assert self._check(workloads, cfg, tmp_path / str(i))[1] == [], cfg


class TestImportCost:
    def test_import_loads_neither_stats_nor_optimize(self):
        # every CLI run pays the import, and scipy.stats with scipy.optimize
        # cost about 0.7 s of it; the moderate-grouped band scale is solved
        # by golden section, so optimize never loads
        script = (
            "import sys\n"
            "import gafzeros, gafzeros.experiments, gafzeros.cli\n"
            "heavy = ('scipy.stats', 'scipy.optimize')\n"
            "print(sorted(m for m in heavy if m in sys.modules))\n"
            "from gafzeros import EventKind, build_event, event_log_prob_detail\n"
            "ev = build_event(EventKind.MODERATE_GROUPED, r=8.0, alpha=1.5, gamma=1.0)\n"
            "print(ev.params['band_scale'] > 0, event_log_prob_detail(ev).total < 0)\n"
            "print('scipy.optimize' in sys.modules)\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(gafzeros.__file__)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True).stdout.splitlines()
        assert out == ["[]", "True True", "False"]
