"""A small Eb/N0 sweep through the Monte Carlo harness, with CSV output.

The same sweep is reproducible from the command line:

    grandnoma sweep-snr --ebn0 6,8,10,12 --scenario grand --decoder grand \
        --channel awgn --min-block-errors 30 --max-blocks 3000 --seed 7 \
        --out sweep.csv

Records are identical for any --workers value, because every trial derives
its own counter-based random stream.
"""

import io

from grandnoma import ScenarioConfig, run_sweep, write_records

cfg = ScenarioConfig(
    scenario="grand",
    decoder="grand",
    channel="awgn",
    min_block_errors=30,
    max_blocks=3_000,
    master_seed=7,
)

points = [6.0, 8.0, 10.0, 12.0]
print(f"sweeping Eb/N0 over {points} dB ({cfg.scenario}/{cfg.decoder}, {cfg.channel})...")
records = run_sweep(cfg, "ebn0", points,
                    on_point=lambda pair: print(
                        f"  {pair[0].ebn0_db:5.1f} dB: {pair[0].blocks} blocks, "
                        f"user1 BER {pair[0].ber:.3e}, user2 BER {pair[1].ber:.3e}, "
                        f"mean queries {pair[0].mean_queries:.0f}/{pair[1].mean_queries:.0f}"
                    ))

buffer = io.StringIO()
write_records(records, "csv", buffer)
print("\nCSV records (the exact schema the CLI emits):\n")
print(buffer.getvalue())
