"""The full Monte Carlo experiment, and an honest look at its two regimes.

Each run draws a fresh 4-path channel, initializes the tracker from a noisy
estimate whose position error std is about 2.5 beam widths — a deliberately
hard cold start with essentially uninformative velocity estimates — and
interleaves sounding/updating at 0.1 ms with fine-grained metrics at 1 us.

Each path either stays locked or is lost, and the per-run numbers below show
both.  At seed 0, all eight runs beat one-shot estimation.  Pooled over the
runs and their fine steps, as `aggregate_runs` and summary.json pool them,
the median loss is -0.33 dB tracked against -13.85 dB one-shot, and the
median prediction-gain ratio is 1.000111.  Seven of the eight runs keep
their median position error under the initial spread, 0.316.  The other
one has at least one lost path.  Most lost paths start further off than the recursive
measurement update can bridge (about 1.5 beamwidths) and are never found.
A few are found and then lost over the next soundings while their velocity
is still unknown: the gain estimate decays towards zero and the position
drifts with the wrong velocity.  The README gives the batch-level numbers
and how they move with the seed.

Runtime: about 3.5 s at 8 runs on two CPUs.  The `beamtrack simulate` CLI
writes the same metrics for any run count to CSV/JSON for external plotting.
"""

import numpy as np

from beamtrack import ScenarioConfig, aggregate_runs, run_many
from beamtrack.simulate import median_and_quantiles


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

    summary = aggregate_runs(records, (0.25, 0.75))
    print("\npooled over runs and fine steps, as summary.json reports them:")
    for name, label in (("tracked_loss", "tracked loss "), ("oneshot_loss", "one-shot loss")):
        q25, q75 = (10 * np.log10(q) for q in summary[name]["quantiles"])
        median = 10 * np.log10(summary[name]["median"])
        print(f"  {label}: median {median:7.2f} dB   q25 {q25:7.2f} dB   q75 {q75:7.2f} dB")
    gain = summary["prediction_gain"]
    print(f"  prediction gain ratio: median {gain['median']:.6f}"
          f"   q25 {gain['quantiles'][0]:.6f}   q75 {gain['quantiles'][1]:.6f}")

    print("\nposition-error quantiles (transmit side, pooled over runs and paths):")
    for t_probe in (1e-4, 1e-3, 2.5e-3, 4.9e-3):
        idx = int(round(t_probe / cfg.fine_step))
        errors = np.concatenate([np.abs(r.est_tx[idx] - r.true_tx[idx]) for r in clean])
        median, (q25, q75) = median_and_quantiles(errors, (0.25, 0.75))
        print(f"  t={t_probe*1e3:4.1f} ms   q25={q25:7.4f}   median={median:7.4f}   q75={q75:7.4f}")


if __name__ == "__main__":  # batch workers are spawned and re-import this file
    main()
