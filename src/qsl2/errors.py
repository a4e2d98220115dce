"""Exception types shared across the package."""


class QSL2Error(Exception):
    pass


class MixedOrders(QSL2Error):
    """Arithmetic between cyclotomic scalars of different conductors."""


class MixedAlgebras(QSL2Error):
    """Arithmetic between polynomials over different generator tables."""


class CompletionFailure(QSL2Error):
    """Bounded overlap completion hit its rule or length cap.

    `context` holds what the failing run knew, e.g. the completion bound,
    the rule count, the agenda size and the last overlap processed.
    """

    def __init__(self, message: str, **context):
        super().__init__(message)
        self.context = context


class NotFiniteDimensional(QSL2Error):
    pass


class InconsistentDatum(QSL2Error):
    """The image of O(Gamma) collapsed in the constructed quotient."""


class CertificateFailed(QSL2Error):
    pass


class UnknownEntry(QSL2Error):
    pass


class ParamOutOfRange(QSL2Error):
    pass


class ParityMismatch(ParamOutOfRange):
    """The ParamOutOfRange of a regime: ell outside the regime of a parity
    (presentations.REGIMES), or a parity that names no regime."""
