import numpy as np
import pytest

from stochsim.trajectory import Trajectory, csv_blocks, csv_rows


def diverged_run() -> Trajectory:
    # two generators in block layout [delta | omega | eqp | edp], one
    # monitored bus, and a run that diverged at the last output time
    nan = np.nan
    states = np.array(
        [
            [0.25, -0.5, 377.0, 376.5, 1.0, 1.125, 0.0, -0.0625],
            [0.1, -0.375, 377.25, 376.75, 0.96875, 1.0, 0.5, -1e-20],
            [nan] * 8,
        ]
    )
    return Trajectory(
        times=np.array([0.0, 0.1, 0.2]),
        states=states,
        gen_buses=(30, 31),
        solver="sas",
        monitor_buses=(39,),
        voltages=np.array([[1.0], [0.9921875], [nan]]),
        t_diverged=0.2,
        diverged_column="g30.delta",
    )


def test_diverged_run_csv_golden_text():
    assert "".join(diverged_run().csv_blocks()) == (
        "t,g30.delta,g30.omega,g30.eqp,g30.edp,g31.delta,g31.omega,g31.eqp,g31.edp,v39\n"
        "0,0.25,377,1,0,-0.5,376.5,1.125,-0.0625,1\n"
        "0.10000000000000001,0.10000000000000001,377.25,0.96875,0.5,"
        "-0.375,376.75,1,-9.9999999999999995e-21,0.9921875\n"
        "0.20000000000000001,nan,nan,nan,nan,nan,nan,nan,nan,nan\n"
    )


def test_value_is_the_csv_column_of_its_name():
    tr = diverged_run()
    header, *rows = "".join(tr.csv_blocks()).splitlines()
    table = np.array([[float(x) for x in row.split(",")] for row in rows])
    for j, name in enumerate(header.split(",")[1:], start=1):
        assert np.array_equal(tr.value(name), table[:, j], equal_nan=True)
    for name in ("t", "g030.delta", "g32.delta", "g30.speed", "g30", "v30", "v39.x", "x39"):
        with pytest.raises(KeyError):
            tr.value(name)
    assert tr.columns is tr.columns  # the names are made once per trajectory


def test_csv_blocks_write_strings_as_they_are():
    blocks = csv_blocks(["variable", "step", "xi"], [["g1.delta", "v2"], range(2), [0.5, -np.inf]])
    assert "".join(blocks) == "variable,step,xi\ng1.delta,0,0.5\nv2,1,-inf\n"
    assert "".join(csv_blocks(["t"], [np.zeros(0)])) == "t\n"
    assert "".join(csv_blocks(["variable", "t"], [])) == "variable,t\n"


def test_csv_rows_equal_cellwise_formatting():
    # blocks of rows formatted through one row format give the bytes of
    # formatting each cell on its own, across block boundaries
    rng = np.random.default_rng(3)
    n = 600
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-320, 300, n)
    x[:6] = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 2.0**60]
    cols = [np.arange(n), x, np.array(["v%d" % i for i in range(n)]), x[::-1].copy()]
    blocks = list(csv_rows(cols))
    assert [b.count("\n") for b in blocks] == [256, 256, 88]
    ref = "".join(
        ",".join(c if isinstance(c, str) else f"{float(c):.17g}" for c in row) + "\n"
        for row in zip(*cols)
    )
    assert "".join(blocks) == ref
