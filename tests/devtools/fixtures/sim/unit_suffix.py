"""Fixture: unit-suffix violations (path is scoped under sim/)."""


class Shaper:
    def __init__(self, rate, delay_s):
        self.rate = rate
        self.delay_s = delay_s


def set_timeout(timeout):
    return timeout


def _private_ok(delay):
    return delay


def allowed(loss_rate, rate_bps):
    return loss_rate, rate_bps
