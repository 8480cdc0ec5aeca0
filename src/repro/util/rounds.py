"""The round protocol.  A *round generator* yields each request it
needs answered next (scenario points; inside ``repro.core.game``, game
states), is sent the answer, and returns its result.  Whoever drives it
decides how requests run: :func:`drive` answers one generator alone,
``repro.campaign.vocab`` batches the rounds of a stage's live units."""

from typing import Any, Callable, Generator, List, Sequence, TypeVar

T = TypeVar("T")

#: A round generator of scenario points, sent their results.
PointRounds = Generator[List[Any], Sequence[Any], T]


def drive(rounds: Generator[Any, Any, T], answer: Callable[[Any], Any]) -> T:
    """Run ``rounds`` to completion, answering each request with
    ``answer(request)``; returns the generator's return value."""
    try:
        request = next(rounds)
        while True:
            request = rounds.send(answer(request))
    except StopIteration as stop:
        return stop.value
