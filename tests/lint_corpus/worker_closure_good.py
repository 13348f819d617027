# lint-corpus-module: repro.bench.widget
"""Known-good twin: module-level trials; lambdas stay serial."""


def module_trial(**kwargs):
    return 0


def comparative(sweep):
    sweep.run(module_trial, workers=4)  # module-level: pickles fine
    sweep.run(lambda **kwargs: 0, workers=1)  # serial path: no pickling
    sweep.run(module_trial, pool="persist")  # pool dispatch, picklable trial
    sweep.run(lambda **kwargs: 0, workers=1, pool="fresh")  # serial wins over pool
