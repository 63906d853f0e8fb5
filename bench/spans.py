"""In-memory span recorder that wraps library functions from outside.

Each wrapped call records one span: its layer name, start and end on the
monotonic clock, and the index of the span that was open when it began
(-1 at the top). Spans live in flat arrays so that a run with a few hundred
thousand calls stays a few megabytes; they are summarized and written out
once, after the traced pass.

A call made directly inside a span of the same name is not recorded again,
so helpers that call each other (iris_encode_cvnn calls iris_encode_onehot)
count once.
"""

import functools
import time
from array import array

import numpy as np


class SpanRecorder:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn):
        """Return fn wrapped so that each call records a span called name."""
        nid = self._id(name)
        clock = time.monotonic
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            top = stack[-1]
            if top >= 0 and name_id[top] == nid:
                return fn(*args, **kwargs)
            idx = len(start)
            name_id.append(nid)
            parent.append(top)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def __len__(self):
        return len(self.start)

    def summary(self):
        """Per layer name: span count, total (inclusive) seconds and self
        seconds, where self time is the span's duration minus the durations
        of its direct children."""
        names = np.frombuffer(self.name_id, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parents >= 0
        child = np.bincount(
            parents[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        own = dur - child
        k = len(self.names)
        counts = np.bincount(names, minlength=k)
        total = np.bincount(names, weights=dur, minlength=k)
        self_s = np.bincount(names, weights=own, minlength=k)
        return {
            name: {
                "calls": int(counts[i]),
                "total_s": float(total[i]),
                "self_s": float(self_s[i]),
            }
            for i, name in enumerate(self.names)
        }

    def save(self, path):
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
