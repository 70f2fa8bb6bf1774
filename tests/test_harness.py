"""Config parsing, persistence, the experiment pipeline, plot data, CLI."""

import json

import numpy as np
import pytest

from solitonlab import cli, flows, geometry, harness, stability
from solitonlab.errors import InsufficientDataError, RejectedInputError
from solitonlab.geometry import FrameModel, GridModel
from solitonlab.harness import RunConfig

TWO_PI = 2.0 * np.pi


GRID_CONFIG = """
[model]
kind = grid
dims = 8,8
period = 6.283185307179586,6.283185307179586
recipe = perturbed-flat
amplitude = 0.01
seed = 3

[flow]
variant = deturck
tau = inf
dt = 0.01
t_end = 0.05

[stability]
analyze = true

[output]
name = smoke
"""


# ---------------------------------------------------------------------------
# config parsing


def test_parse_defaults_and_round_trip():
    cfg = harness.parse_config(GRID_CONFIG)
    assert cfg.kind == "grid"
    assert cfg.dims == (8, 8)
    assert np.isinf(cfg.tau)
    assert cfg.sample_every == 1  # untouched default
    text = harness.serialize_config(cfg)
    again = harness.parse_config(text)
    assert again == cfg
    assert harness.serialize_config(again) == text
    assert again.digest() == cfg.digest()


def test_parse_rejects_unknown_section_and_key():
    with pytest.raises(RejectedInputError, match="mystery"):
        harness.parse_config("[mystery]\nx = 1\n")
    with pytest.raises(RejectedInputError, match="flow.warp"):
        harness.parse_config("[flow]\nwarp = 9\n")


@pytest.mark.parametrize("snippet,field", [
    ("[flow]\ndt = -0.1\n", "flow.dt"),
    ("[flow]\ndt = soon\n", "flow.dt"),
    ("[flow]\ndt = 0.3\nt_end = 1.0\n", "flow.t_end"),
    ("[flow]\nt_end = inf\n", "flow.t_end"),
    ("[flow]\ndt = 1e-310\nt_end = 1.0\n", "flow.t_end"),
    ("[flow]\ntau = 0\n", "flow.tau"),
    ("[flow]\nvariant = sideways\n", "flow.variant"),
    ("[flow]\ncouple_potential = maybe\n", "flow.couple_potential"),
    ("[model]\nkind = sphere\n", "model.kind"),
    ("[model]\ndims = 8\n", "model.dims"),
    ("[model]\ndims = 2,2\n", "model.dims"),
    ("[model]\ndims = 6,6\n", "model.dims"),
    ("[flow]\ncouple_potential = true\n", "flow.couple_potential"),
    ("[flow]\ntau = 1.0\ncouple_potential = true\n", "flow.couple_potential"),
    ("[model]\nkind = frame\nrecipe = berger\n"
     "[flow]\nvariant = tau\ntau = inf\ncouple_potential = true\n", "flow.couple_potential"),
    ("[model]\namplitude = 0.9\n", "model.amplitude"),
    ("[model]\nkind = frame\nrecipe = berger\ncoefficients = 1,-1,1\n",
     "model.coefficients"),
    ("[model]\nkind = frame\nrecipe = berger\n[flow]\nvariant = deturck\n", "flow.variant"),
])
def test_field_precise_validation(snippet, field):
    with pytest.raises(RejectedInputError, match=field.replace(".", r"\.")):
        harness.parse_config(snippet)


def test_auto_fields_round_trip():
    cfg = harness.parse_config("[stability]\neps_neutral = auto\nbeta = 1.5\n")
    assert cfg.eps_neutral is None
    assert cfg.beta == 1.5
    assert harness.parse_config(harness.serialize_config(cfg)) == cfg


# ---------------------------------------------------------------------------
# model construction


def test_build_model_is_seed_deterministic():
    cfg = harness.parse_config(GRID_CONFIG)
    a = harness.build_model(cfg)
    b = harness.build_model(cfg)
    assert np.array_equal(a.g, b.g)
    cfg2 = RunConfig(**{**cfg.__dict__, "seed": cfg.seed + 1})
    c = harness.build_model(cfg2)
    assert not np.array_equal(a.g, c.g)
    # amplitude bounds the perturbation exactly
    flat = harness.flat_background(cfg)
    assert np.isclose(np.max(np.abs(a.g - flat.g)), cfg.amplitude)


def test_build_frame_models():
    cfg = RunConfig(kind="frame", recipe="berger", coefficients=(1.2, 1.0, 0.7))
    m = harness.build_model(cfg)
    assert isinstance(m, FrameModel)
    assert np.allclose(m.a, (1.2, 1.0, 0.7))
    cfg = RunConfig(kind="frame", recipe="round", coefficients=(4.0, 1.0, 1.0))
    assert np.allclose(harness.build_model(cfg).a, 4.0)


# ---------------------------------------------------------------------------
# persistence


def test_trajectory_round_trip_frame(tmp_path):
    m = FrameModel.su2(a=(4.4, 4.0, 3.7))
    traj = flows.run_flow(m, "tau", tau=1.0, dt=1e-2, t_end=0.05,
                          couple_f=True)
    path = tmp_path / "traj.jsonl"
    harness.save_trajectory(traj, path)
    back = harness.load_trajectory(path)
    assert back.convention == traj.convention
    assert len(back.states) == len(traj.states)
    for s0, s1 in zip(traj.states, back.states):
        assert np.allclose(s0.model.a, s1.model.a, atol=1e-15)
        assert np.isclose(s0.f, s1.f, atol=1e-15)
    assert back.diagnostics[-1]["entropy"]["W"] == traj.diagnostics[-1]["entropy"]["W"]


def test_trajectory_round_trip_grid(tmp_path):
    cfg = harness.parse_config(GRID_CONFIG)
    model0 = harness.build_model(cfg)
    h = harness.flat_background(cfg)
    traj = flows.run_flow(model0, "deturck", np.inf, 0.01, 0.03, background=h)
    path = tmp_path / "traj.jsonl"
    harness.save_trajectory(traj, path)
    back = harness.load_trajectory(path)
    for s0, s1 in zip(traj.states, back.states):
        assert np.array_equal(s0.model.g, s1.model.g)
        assert s1.model.dims == s0.model.dims


def test_trajectory_round_trip_flat_torus(tmp_path):
    """A frame state reloads with its own structure constants and base volume."""
    m = FrameModel.flat_torus3(a=(1.0, 2.0, 3.0), base_volume=5.0)
    traj = flows.run_flow(m, "tau", tau=1.0, dt=1e-2, t_end=0.05)
    path = tmp_path / "traj.jsonl"
    harness.save_trajectory(traj, path)
    back = harness.load_trajectory(path)
    assert len(back.states) == len(traj.states)
    for s0, s1 in zip(traj.states, back.states):
        assert np.array_equal(s1.model.lams, np.zeros(3))
        assert np.array_equal(s1.model.a, s0.model.a)
        assert s1.model.base_volume == 5.0
        assert np.array_equal(geometry.ricci(s1.model), np.zeros(3))
        assert geometry.volume(s1.model) == geometry.volume(s0.model)


def test_frame_trajectory_without_lams_is_rejected_by_name(tmp_path):
    """Frame states written before they recorded their Milnor constants."""
    path = tmp_path / "old.jsonl"
    lines = [{"kind": "header", "convention": "tau"},
             {"kind": "state", "t": 0.0, "tau": 1.0, "model": "frame",
              "a": [4.4, 4.0, 3.7], "c": np.zeros((3, 3, 3)).tolist(), "f": 0.1},
             {"kind": "diagnostics", "t": 0.0}]
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    with pytest.raises(RejectedInputError, match="'lams'"):
        harness.load_trajectory(path)


# ---------------------------------------------------------------------------
# the pipeline


def test_run_experiment_writes_artifacts_and_verdicts(tmp_path, monkeypatch):
    monkeypatch.setenv(harness.OUTPUT_ENV_VAR, str(tmp_path))
    cfg = harness.parse_config(GRID_CONFIG)
    record = harness.run_experiment(cfg)
    out_dir = tmp_path / f"{cfg.name}-{cfg.digest()}"
    assert (out_dir / "record.json").exists()
    assert (out_dir / "config.ini").exists()
    assert (out_dir / "trajectory.jsonl").exists()
    assert record.spectral_path is not None
    doc = json.loads((out_dir / "spectral.json").read_text())
    assert doc["counts"]["neutral"] == 3
    assert record.verdicts["factor_two_holds"]
    assert record.verdicts["stationary"] is False
    assert record.verdicts["final_norm"] > 0


def test_run_experiment_is_deterministic(tmp_path, monkeypatch):
    monkeypatch.setenv(harness.OUTPUT_ENV_VAR, str(tmp_path))
    cfg = harness.parse_config(GRID_CONFIG)
    v1 = harness.run_experiment(cfg).verdicts
    v2 = harness.run_experiment(cfg).verdicts
    assert v1 == v2


def test_verdicts_recomputable_from_trajectory(tmp_path, monkeypatch):
    monkeypatch.setenv(harness.OUTPUT_ENV_VAR, str(tmp_path))
    cfg = harness.parse_config(GRID_CONFIG)
    record = harness.run_experiment(cfg)
    traj = harness.load_trajectory(record.trajectory_path)
    h = harness.flat_background(cfg)
    from solitonlab import stability
    fam = stability.nearest_soliton_in_family(traj.states[-1].model, h)
    final = geometry.norms(h, traj.states[-1].model.g - fam.g1.g).l2
    assert np.isclose(final, record.verdicts["final_norm"], rtol=1e-12)


def test_run_experiment_frame_entropy_audit(tmp_path, monkeypatch):
    monkeypatch.setenv(harness.OUTPUT_ENV_VAR, str(tmp_path))
    cfg = RunConfig(kind="frame", recipe="berger", coefficients=(4.4, 4.0, 3.7),
                    variant="tau", tau=1.0, dt=1e-3, t_end=0.05, sample_every=10,
                    couple_potential=True, analyze=False, name="frame-audit")
    record = harness.run_experiment(cfg)
    assert record.verdicts["monotonicity"] is True
    assert record.verdicts["entropy_final"] >= record.verdicts["entropy_initial"]


def test_run_experiment_records_failed_stage(tmp_path, monkeypatch):
    monkeypatch.setenv(harness.OUTPUT_ENV_VAR, str(tmp_path))
    # frame models have no reference background: the deturck variant must fail
    cfg = RunConfig(kind="frame", recipe="round", coefficients=(4.0, 1.0, 1.0),
                    variant="deturck", analyze=False, name="doomed")
    with pytest.raises(RejectedInputError):
        harness.run_experiment(cfg)
    out_dir = tmp_path / f"{cfg.name}-{cfg.digest()}"
    doc = json.loads((out_dir / "record.json").read_text())
    assert doc["verdicts"]["failed_stage"] == "flow"
    assert "error" in doc["verdicts"]


def test_rate_fit_without_enough_data_records_no_rate(tmp_path, monkeypatch):
    monkeypatch.setenv(harness.OUTPUT_ENV_VAR, str(tmp_path))

    def too_few(times, norms):
        raise InsufficientDataError("too few samples")

    monkeypatch.setattr(stability, "fit_exponential_rate", too_few)
    record = harness.run_experiment(harness.parse_config(GRID_CONFIG))
    assert record.verdicts["rate"] is None


def test_rate_fit_error_fails_the_stability_stage(tmp_path, monkeypatch):
    monkeypatch.setenv(harness.OUTPUT_ENV_VAR, str(tmp_path))

    def broken(times, norms):
        raise FloatingPointError("overflow in the fit")

    monkeypatch.setattr(stability, "fit_exponential_rate", broken)
    cfg = harness.parse_config(GRID_CONFIG)
    with pytest.raises(FloatingPointError):
        harness.run_experiment(cfg)
    doc = json.loads((tmp_path / f"{cfg.name}-{cfg.digest()}" / "record.json").read_text())
    assert doc["verdicts"]["failed_stage"] == "stability"


def test_gauge_reconstruction_verdict(tmp_path, monkeypatch):
    monkeypatch.setenv(harness.OUTPUT_ENV_VAR, str(tmp_path))
    cfg = harness.parse_config(GRID_CONFIG)
    cfg.reconstruct = True
    cfg.analyze = False
    cfg.name = "with-gauge"
    run_flow = flows.run_flow
    variants = []

    def counted(model0, variant, *args, **kwargs):
        variants.append(variant)
        return run_flow(model0, variant, *args, **kwargs)

    monkeypatch.setattr(flows, "run_flow", counted)
    record = harness.run_experiment(cfg)
    # the gauge stage reuses the pipeline's DeTurck trajectory
    assert variants == ["deturck", "unnormalized"]
    assert 0.0 <= record.verdicts["gauge_discrepancy"] < 1e-3
    disc, _ = harness._gauge_reconstruction(cfg, harness.build_model(cfg),
                                            harness.flat_background(cfg))
    assert variants[2:] == ["unnormalized", "deturck"]
    assert record.verdicts["gauge_discrepancy"] == disc
    lines = [json.loads(l) for l in open(record.trajectory_path)]
    assert any(rec["kind"] == "gauge" for rec in lines)


# ---------------------------------------------------------------------------
# plot data


def test_emit_plotdata_columns(tmp_path, monkeypatch):
    monkeypatch.setenv(harness.OUTPUT_ENV_VAR, str(tmp_path))
    cfg = harness.parse_config(GRID_CONFIG)
    record = harness.run_experiment(cfg)
    path = harness.emit_plotdata(record, "norm")
    lines = open(path).read().strip().splitlines()
    assert lines[0] == "# t\tnorm"
    assert len(lines) > 2
    t, v = lines[1].split("\t")
    assert float(t) == 0.0 and float(v) > 0.0
    with pytest.raises(RejectedInputError):
        harness.emit_plotdata(record, "vibes")


# ---------------------------------------------------------------------------
# CLI exit codes


def _write_config(tmp_path, text):
    p = tmp_path / "cfg.ini"
    p.write_text(text)
    return str(p)


def test_cli_run_ok(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(harness.OUTPUT_ENV_VAR, str(tmp_path))
    code = cli.main(["run", _write_config(tmp_path, GRID_CONFIG)])
    assert code == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "record.json" in out


def test_cli_validation_exit_code(tmp_path, capsys):
    bad = _write_config(tmp_path, "[flow]\ndt = -1\n")
    assert cli.main(["run", bad]) == cli.EXIT_VALIDATION
    assert "flow.dt" in capsys.readouterr().err
    assert cli.main(["run", str(tmp_path / "missing.ini")]) == cli.EXIT_VALIDATION
    frame = _write_config(tmp_path, "[model]\nkind = frame\nrecipe = round\n"
                          "coefficients = 4,4,4\n[flow]\nvariant = deturck\n")
    assert cli.main(["run", frame]) == cli.EXIT_VALIDATION
    assert "validation error: flow.variant" in capsys.readouterr().err


def test_cli_numerical_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(harness.OUTPUT_ENV_VAR, str(tmp_path))
    # dt so far above the parabolic bound that halving cannot rescue the step
    text = GRID_CONFIG.replace("dt = 0.01", "dt = 100000.0").replace(
        "t_end = 0.05", "t_end = 100000.0")
    code = cli.main(["run", _write_config(tmp_path, text)])
    assert code == cli.EXIT_NUMERICAL
    assert "numerical failure" in capsys.readouterr().err


def test_cli_frame_singularity_exits_numerical(tmp_path, monkeypatch, capsys):
    """Berger (1.2, 1.0, 0.9) lies below the round fixed point a = 4 of the
    tau = 1 flow and collapses in finite time: halving cannot carry a step
    past the singularity, so the run fails in the flow stage, naming the time."""
    monkeypatch.setenv(harness.OUTPUT_ENV_VAR, str(tmp_path))
    text = ("[model]\nkind = frame\nrecipe = berger\ncoefficients = 1.2,1.0,0.9\n"
            "[flow]\nvariant = tau\ntau = 1.0\ndt = 0.01\nt_end = 2.0\n"
            "[output]\nname = singular\n")
    assert cli.main(["run", _write_config(tmp_path, text)]) == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "numerical failure: step to t = 0.297" in err
    assert "left the SPD cone" in err
    record, = tmp_path.glob("singular-*/record.json")
    assert json.loads(record.read_text())["verdicts"]["failed_stage"] == "flow"


def test_cli_spectrum_and_plot(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(harness.OUTPUT_ENV_VAR, str(tmp_path))
    cfg_path = _write_config(tmp_path, GRID_CONFIG)
    assert cli.main(["spectrum", cfg_path]) == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["counts"]["neutral"] == 3

    assert cli.main(["run", cfg_path]) == cli.EXIT_OK
    out = capsys.readouterr().out
    record_path = out.strip().splitlines()[-1].split("record: ")[-1]
    assert cli.main(["plot", record_path, "norm"]) == cli.EXIT_OK
    plot_path = capsys.readouterr().out.strip()
    assert plot_path.endswith("plot-norm.dat")


BERGER_ENTROPY = ("[model]\nkind = frame\nrecipe = berger\ncoefficients = {}\n"
                  "[flow]\nvariant = tau\ntau = 1.0\ndt = 0.01\nt_end = {}\n")


def test_cli_entropy_on_a_berger_flow(tmp_path, capsys):
    cfg = _write_config(tmp_path, BERGER_ENTROPY.format("4.4,4.0,3.7", 0.1))
    assert cli.main(["entropy", cfg]) == cli.EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 11
    for line in lines:
        fields = dict(part.split("=") for part in line.split())
        assert np.isfinite(float(fields["W"]))
        assert fields["monotone"] == "True"


def test_cli_entropy_exit_codes(tmp_path, capsys):
    singular = _write_config(tmp_path, BERGER_ENTROPY.format("1.2,1.0,0.9", 2.0))
    assert cli.main(["entropy", singular]) == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "left the SPD cone" in err
    assert abs(float(err.split("step to t = ")[1].split()[0]) - 0.2974) < 1e-4
    # the potential cannot be audited on a grid, whatever tau is
    for tau in ("inf", "1.0"):
        grid = _write_config(tmp_path, GRID_CONFIG.replace("tau = inf", f"tau = {tau}"))
        assert cli.main(["entropy", grid]) == cli.EXIT_VALIDATION
        assert "flow.couple_potential" in capsys.readouterr().err


def test_cli_gauge_check(tmp_path, capsys):
    grid = _write_config(tmp_path, GRID_CONFIG.replace("dims = 8,8", "dims = 16,16"))
    assert cli.main(["gauge-check", grid]) == cli.EXIT_OK
    first = capsys.readouterr().out.splitlines()[0]
    assert first.startswith("max sup-discrepancy")
    assert np.isfinite(float(first.split(":")[-1]))
    frame = _write_config(tmp_path, BERGER_ENTROPY.format("4.4,4.0,3.7", 0.1))
    assert cli.main(["gauge-check", frame]) == cli.EXIT_VALIDATION
    assert "model.kind" in capsys.readouterr().err


def _unit_flat_symbol(dims, period):
    """Compact-stencil Laplacian eigenvalues of a unit-metric torus."""
    thetas = np.meshgrid(*[2.0 * np.pi * np.fft.fftfreq(d) for d in dims], indexing="ij")
    return sum(-2.0 * (1.0 - np.cos(th)) / (p / d) ** 2
               for th, d, p in zip(thetas, dims, period)).ravel()


@pytest.mark.parametrize("dims", [(64, 64), (8, 8, 8)], ids=["64x64", "8x8x8"])
def test_cli_spectrum_beyond_the_dense_cap(tmp_path, capsys, dims):
    period = tuple(TWO_PI * (1.0 + 0.1 * ax) for ax in range(len(dims)))
    text = ("[model]\nkind = grid\nrecipe = flat\n"
            f"dims = {','.join(map(str, dims))}\n"
            f"period = {','.join(map(repr, period))}\n")
    assert cli.main(["spectrum", _write_config(tmp_path, text)]) == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    sym = _unit_flat_symbol(dims, period)
    ncomp = len(dims) * (len(dims) + 1) // 2
    assert doc["counts"] == {"grow": 0, "neutral": ncomp, "decay": ncomp * sym.size - ncomp}
    gap = np.min(np.abs(sym)[np.abs(sym) > 1e-10])
    assert abs(doc["gap"] - gap) <= 1e-12 * gap
