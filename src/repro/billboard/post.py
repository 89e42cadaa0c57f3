"""Billboard post records.

A post is one line on the shared billboard. The paper assumes every message
is "reliably tagged by the identity of the posting player and a timestamp"
(Section 2.1); we realize the timestamp as the synchronous round number plus
a board-assigned sequence number that totally orders posts within a round.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class PostKind(enum.Enum):
    """The two kinds of billboard posts.

    ``REPORT``
        The outcome of probing an object that did *not* qualify as the
        poster's vote (a "negative" report). DISTILL flatly ignores these —
        the paper's closing question "is slander useless?" refers exactly to
        this information being discarded — but the billboard still records
        them because the model says players post after every probe.

    ``VOTE``
        A positive recommendation: "this object is good". Under local
        testing an honest player votes for the first good object it probes
        and halts; without local testing (Section 5.3) the vote is the best
        object probed so far and may be re-posted as it improves.
    """

    REPORT = "report"
    VOTE = "vote"


@dataclass(frozen=True)
class Post:
    """One immutable billboard entry.

    Attributes
    ----------
    seq:
        Board-assigned sequence number; totally orders all posts.
    round_no:
        The synchronous round in which the post was appended. Posts made in
        round ``r`` become visible to honest players at the start of round
        ``r + 1`` (the adversary may react within round ``r`` itself; see
        DESIGN.md, "Adversary ordering").
    player:
        Identity of the posting player, ``0 <= player < n``. The billboard
        guarantees this tag is reliable — a Byzantine player cannot forge
        posts under another identity.
    object_id:
        The object the post is about, ``0 <= object_id < m``.
    reported_value:
        The value the poster claims to have observed. Honest players report
        truthfully; Byzantine players may report anything.
    kind:
        :class:`PostKind.VOTE` or :class:`PostKind.REPORT`.
    """

    seq: int
    round_no: int
    player: int
    object_id: int
    reported_value: float
    kind: PostKind

    @property
    def is_vote(self) -> bool:
        """Whether this post is a positive recommendation."""
        return self.kind is PostKind.VOTE

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        tag = "VOTE" if self.is_vote else "rep "
        return (
            f"[{self.seq:>6} r{self.round_no:>5}] {tag} "
            f"player={self.player} object={self.object_id} "
            f"value={self.reported_value:g}"
        )


class PostBlock(NamedTuple):
    """One same-kind block of posts for one round, as columns.

    The fields are the column arguments of a board's ``post_block``, in
    its order, so a block posts as ``board.post_block(round_no,
    *block)``. It is the one format an adversary's turn takes
    (:meth:`~repro.adversaries.base.Adversary.act`). ``values`` are the
    values the posts claim to have observed; they only matter to readers
    that inspect them (the no-local-testing model, slander).
    """

    players: np.ndarray
    objects: np.ndarray
    values: np.ndarray
    kind: PostKind

    @classmethod
    def votes(cls, players: np.ndarray, objects: np.ndarray) -> "PostBlock":
        """Positive votes of ``players`` for ``objects``, each claiming
        value 1.0 ("looks good")."""
        players = np.asarray(players, dtype=np.int64)
        return cls(
            players,
            np.asarray(objects, dtype=np.int64),
            np.ones(players.size),
            PostKind.VOTE,
        )
