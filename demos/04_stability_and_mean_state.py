"""Mean-state behavior of the robust closed loop.

Shows the three stability margins, the convergence of the deterministic
mean-state recursion to its fixed point (zero for a zero-mean
nominal), and the geometric decay of an initial estimation offset.
"""

import numpy as np

import wdrc


def main():
    system = wdrc.LinearSystem(A=[[1.2]], B=[[1.0]], C=[[1.0]], M=[[0.5]],
                               m0=[0.0], M0=[[1.0]])
    weights = wdrc.CostWeights(Q=[[1.0]], Qf=[[1.0]], R=[[1.0]])
    nominal = wdrc.NominalMoments(w_hat=[0.2], sigma_hat=[[0.5]])

    bundle = wdrc.design_wdrc(system, weights, nominal, 60.0)
    rep = wdrc.stability_report(bundle)
    print("open-loop radius 1.2 -> closed-loop radius %.4f" % rep.rho_closed_loop)
    print("penalized-loop radius %.4f, filter-loop radius %.4f"
          % (rep.rho_penalized_loop, rep.rho_filter_loop))
    print("mean-state limit under the worst-case pair:", rep.mean_state_limit)

    ms = wdrc.mean_state_trajectory(bundle, x0_mean=[3.0], horizon=120)
    print("|state mean - limit| after 120 steps: %.3e" % ms.limit_error)

    ms_off = wdrc.mean_state_trajectory(bundle, x0_mean=[3.0], horizon=120,
                                        estimate0=[-3.0])
    print("terminal estimation-mean error with a 6.0 initial offset: %.3e"
          % ms_off.estimation_error)

    errs = np.linalg.norm(ms_off.states - ms_off.estimates, axis=1)
    print("estimation-error decay (every 20 steps):",
          ["%.2e" % e for e in errs[::20]])


if __name__ == "__main__":
    main()
