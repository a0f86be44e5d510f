"""Fixture: unpicklable task callables the pool-safety analysis rule bans."""

from repro.parallel import run_tasks


def _module_level(x):
    return x * 2


def ships_a_lambda(payloads):
    return run_tasks(lambda x: x * 2, payloads)  # line 11: lambda worker


def ships_a_closure(payloads, factor):
    def scaled(x):  # nested function capturing `factor`
        return x * factor

    return run_tasks(scaled, payloads)  # line 18: closure worker


def ships_a_keyword_lambda(payloads):
    return run_tasks(worker=lambda x: x, payloads=payloads)  # line 22


def fine(payloads):
    # Module-level worker and a parent-side on_result callback: allowed.
    return run_tasks(_module_level, payloads, on_result=lambda i, v: None)


def shared_name(x):  # module-level; same name as a nested def below
    return x + 1


def defines_a_local_twin(values):
    def shared_name(v):  # local twin never reaches the pool
        return v - 1

    return [shared_name(v) for v in values]


def fine_shared_name(payloads):
    # Resolves to the module-level `shared_name`, which pickles fine;
    # the nested def of the same name elsewhere must not trip the rule.
    return run_tasks(shared_name, payloads)
