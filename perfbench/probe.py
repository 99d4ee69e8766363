"""One set-up probe for setup_s: a fresh interpreter's imports and input building.

    python3 perfbench/probe.py <workload> <seed> <t0>

`t0` is the CLOCK_MONOTONIC reading taken when the parent launched this
process.  The probe prints the seconds from then until entact is imported
and the workload's inputs are built.  Of the benchmark it imports only
`workloads`, so the time is entact's and the input building's.
The parent puts src/ of the checkout on PYTHONPATH.
"""
import sys
import time


def main() -> None:
    name, seed, t0 = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    import workloads

    wl = workloads.WORKLOADS[name](seed)
    wl.setup()
    wl.fixtures()
    print(time.clock_gettime(time.CLOCK_MONOTONIC) - t0)


if __name__ == "__main__":
    main()
