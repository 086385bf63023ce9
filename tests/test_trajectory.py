import numpy as np

from stochsim.trajectory import Trajectory, csv_text


def test_diverged_run_csv_golden_text():
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
    tr = Trajectory(
        times=np.array([0.0, 0.1, 0.2]),
        states=states,
        gen_buses=(30, 31),
        solver="sas",
        monitor_buses=(39,),
        voltages=np.array([[1.0], [0.9921875], [nan]]),
        diverged=True,
        t_diverged=0.2,
        diverged_column="g30.delta",
    )
    assert tr.to_csv() == (
        "t,g30.delta,g30.omega,g30.eqp,g30.edp,g31.delta,g31.omega,g31.eqp,g31.edp,v39\n"
        "0,0.25,377,1,0,-0.5,376.5,1.125,-0.0625,1\n"
        "0.10000000000000001,0.10000000000000001,377.25,0.96875,0.5,"
        "-0.375,376.75,1,-9.9999999999999995e-21,0.9921875\n"
        "0.20000000000000001,nan,nan,nan,nan,nan,nan,nan,nan,nan\n"
    )


def test_csv_text_writes_strings_as_they_are():
    text = csv_text(["variable", "step", "xi"], [["g1.delta", "v2"], range(2), [0.5, -np.inf]])
    assert text == "variable,step,xi\ng1.delta,0,0.5\nv2,1,-inf\n"
    assert csv_text(["t"], [np.zeros(0)]) == "t\n"
