from hypothesis import Phase, settings

settings.register_profile("ci", deadline=None, max_examples=60)
# ci without the shrink phase, for the CI job: every example still runs and
# a failing one still fails its test, but pytest reports it at once instead
# of spending minutes shrinking it; select it with
# --hypothesis-profile=ci-no-shrink (local runs keep shrinking)
settings.register_profile(
    "ci-no-shrink", settings.get_profile("ci"),
    phases=tuple(p for p in settings.get_profile("ci").phases if p is not Phase.shrink))
settings.load_profile("ci")
