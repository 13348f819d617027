# lint-corpus-module: repro.bench.widget
"""Known-bad: unpicklable functions handed to process-pool calls."""


def comparative(sweep):
    def local_trial(**kwargs):  # nested: dies in pickle
        return 0

    sweep.run(local_trial, workers=4)
    sweep.run(lambda **kwargs: 0, workers=2)
    sweep.run(lambda **kwargs: 0, pool="persist")  # pool dispatch: same pickle wall
