"""The full Monte Carlo experiment, and an honest look at its two regimes.

Each run draws a fresh 4-path channel, initializes the tracker from a noisy
estimate whose position error std is about 2.5 beam widths — a deliberately
hard cold start with essentially uninformative velocity estimates — and
interleaves sounding/updating at 0.1 ms with fine-grained metrics at 1 us.

Each path either stays locked or is lost, and the per-run numbers below show
both.  At seed 0, all eight runs beat one-shot estimation; the across-run
median loss is -0.77 dB tracked against -13.81 dB one-shot, and the median
prediction-gain ratio is 1.000090.  Six of the eight runs keep
their median position error under the initial spread.  The other two have at least one
lost path.  Most lost paths start further off than the recursive
measurement update can bridge (about 1.5 beamwidths) and are never found.
A few are found and then lost over the next soundings while their velocity
is still unknown: the gain estimate decays towards zero and the position
drifts with the wrong velocity.  The README gives the batch-level numbers
and how they move with the seed.

Runtime: about 3 s at 8 runs on two CPUs.  The `beamtrack simulate` CLI
writes the same metrics for any run count to CSV/JSON for external plotting.
"""

import numpy as np

from beamtrack import ScenarioConfig, aggregate_runs, run_many


def main() -> None:
    cfg = ScenarioConfig(num_runs=8, seed=0)
    records = run_many(cfg)
    clean = [r for r in records if not r.diverged]
    print(f"{len(records)} runs, {len(records) - len(clean)} diverged\n")

    print("run | tracked median loss | one-shot median loss | median AoD error (t>1ms)")
    for i, rec in enumerate(clean):
        late = rec.times > 5e-4
        tracked_db = 10 * np.log10(np.nanmedian(rec.tracked_loss[late]))
        oneshot_db = 10 * np.log10(np.nanmedian(rec.oneshot_loss[late]))
        settled = rec.times >= 1e-3
        aod_err = float(np.nanmedian(np.abs(rec.est_tx[settled] - rec.true_tx[settled])))
        mode = "beats one-shot" if tracked_db > oneshot_db else "loses to one-shot"
        print(f" {i:2d} | {tracked_db:12.1f} dB     | {oneshot_db:13.1f} dB      |"
              f" {aod_err:8.3f}   ({mode})")

    summary = aggregate_runs(records)
    mid = summary.times > 5e-4
    print("\nacross-run medians after 0.5 ms:")
    print("  tracked loss  :", f"{10*np.log10(np.median(summary.tracked_loss['median'][mid])):7.2f} dB")
    print("  one-shot loss :", f"{10*np.log10(np.median(summary.oneshot_loss['median'][mid])):7.2f} dB")
    print("  prediction gain ratio:",
          f"{np.median(summary.prediction_gain['median']):8.6f}")

    print("\nposition-error quantiles (transmit side, pooled over paths):")
    for t_probe in (1e-4, 1e-3, 2.5e-3, 4.9e-3):
        idx = int(round(t_probe / cfg.fine_step))
        q25 = summary.aod_error["q25"][idx]
        q50 = summary.aod_error["median"][idx]
        q75 = summary.aod_error["q75"][idx]
        print(f"  t={t_probe*1e3:4.1f} ms   q25={q25:7.4f}   median={q50:7.4f}   q75={q75:7.4f}")


if __name__ == "__main__":  # batch workers are spawned and re-import this file
    main()
