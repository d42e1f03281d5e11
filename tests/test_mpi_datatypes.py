"""Unit tests for reduction ops and payload accounting."""

import pickle

import numpy as np
import pytest

from repro.mpi import Runtime, datatypes
from repro.mpi.datatypes import (
    MAX,
    MIN,
    PROD,
    SUM,
    copy_payload,
    payload_nbytes,
    snapshot_payload,
)


class TestReduceOps:
    def test_sum_arrays(self):
        a, b = np.arange(4.0), np.ones(4)
        np.testing.assert_allclose(SUM(a, b), a + b)

    def test_min_max_scalars(self):
        assert MIN(3, 5) == 3
        assert MAX(3, 5) == 5

    def test_prod(self):
        np.testing.assert_allclose(PROD(np.full(3, 2.0), np.full(3, 4.0)), 8.0)

    def test_ufunc_attached(self):
        assert SUM.ufunc is np.add
        assert MIN.ufunc is np.minimum


class TestPayloadNbytes:
    def test_ndarray(self):
        assert payload_nbytes(np.zeros(10)) == 80
        assert payload_nbytes(np.zeros(10, dtype=np.float32)) == 40

    def test_scalars(self):
        assert payload_nbytes(3) == 8
        assert payload_nbytes(3.14) == 8

    def test_none_is_empty(self):
        assert payload_nbytes(None) == 0

    def test_bytes(self):
        assert payload_nbytes(b"abcd") == 4

    def test_list_of_arrays(self):
        assert payload_nbytes([np.zeros(2), np.zeros(3)]) == 40

    def test_generic_object_uses_pickle_length(self):
        n = payload_nbytes({"a": 1, "b": [1, 2, 3]})
        assert n > 0

    def test_wire_nbytes_protocol(self):
        class Fake:
            __wire_nbytes__ = 12345

        assert payload_nbytes(Fake()) == 12345


class TestCopyPayload:
    def test_array_is_copied(self):
        a = np.arange(5.0)
        b = copy_payload(a)
        b[0] = 99
        assert a[0] == 0.0

    def test_scalar_passthrough(self):
        assert copy_payload(7) == 7
        assert copy_payload("x") == "x"
        assert copy_payload(None) is None

    def test_mutable_container_deep_copied(self):
        d = {"k": [1, 2]}
        c = copy_payload(d)
        c["k"].append(3)
        assert d["k"] == [1, 2]

    def test_dict_of_arrays_copied(self):
        d = {0: np.arange(3.0)}
        c = copy_payload(d)
        c[0][0] = -1
        assert d[0][0] == 0.0


def counting_pickle(log):
    """A stand-in for a module's ``pickle``: ``dumps`` appends the type
    it is handed to ``log`` (also used by ``tests/test_crystal_plan.py``)."""

    class CountingPickle:
        HIGHEST_PROTOCOL = pickle.HIGHEST_PROTOCOL
        loads = staticmethod(pickle.loads)

        @staticmethod
        def dumps(obj, protocol=None):
            log.append(type(obj))
            return pickle.dumps(obj, protocol=protocol)

    return CountingPickle


class _Sized:
    """A payload that prices itself, as ``DenseVector`` in
    ``repro.gs.allreduce_method`` does."""

    def __init__(self, body):
        self.body = body

    @property
    def __wire_nbytes__(self):
        return 12345

    def __eq__(self, other):
        return type(other) is _Sized and other.body == self.body


_PAYLOADS = [
    np.arange(6.0).reshape(2, 3), np.float32(2.5), 7, 2.5, True, None,
    "text", b"abcd", bytearray(b"abc"), (1, 2.0, "x"), (), [1, 2, 3],
    [np.zeros(2), np.zeros(3)], (np.zeros(2),), (1, [2]),
    {0: (np.arange(3), np.arange(3.0)), 5: (np.arange(0), np.arange(0.0))},
    {}, _Sized([1, 2]),
]


class TestSnapshotPayload:
    @pytest.mark.parametrize("payload", _PAYLOADS, ids=lambda p: type(p).__name__)
    def test_is_copy_payload_and_payload_nbytes(self, payload):
        snapshot, nbytes = snapshot_payload(payload)
        assert nbytes == payload_nbytes(payload)
        assert type(nbytes) is int
        want = copy_payload(payload)
        assert type(snapshot) is type(want)
        assert pickle.dumps(snapshot) == pickle.dumps(want)
        assert (snapshot is payload) == (want is payload)

    def test_a_send_pickles_a_dict_at_most_once(self, monkeypatch):
        """``_send_raw`` priced with one ``dumps`` and snapshot with a
        second; the size, the delivered object and the trace are as before."""
        calls = []
        monkeypatch.setattr(datatypes, "pickle", counting_pickle(calls))
        sent = {3: (np.arange(4), np.arange(4.0)), 1: (np.arange(2), np.ones(2))}

        def main(comm):
            if comm.rank == 0:
                comm.send(sent, dest=1, tag=9)
                sent[3][1][:] = -1.0  # the sender's buffer is its own again
                comm.isend(_Sized([1]), dest=1, tag=10)
                return None
            got, status = comm.recv(source=0, tag=9, return_status=True)
            return got, status.nbytes, comm.recv(source=0, tag=10)

        rt = Runtime(nranks=2, trace_messages=True)
        got, nbytes, sized = rt.run(main)[1]
        assert calls == [dict, _Sized]
        want = {3: (np.arange(4), np.arange(4.0)), 1: (np.arange(2), np.ones(2))}
        assert nbytes == len(pickle.dumps(want, protocol=pickle.HIGHEST_PROTOCOL))
        assert list(got) == [3, 1] and pickle.dumps(got) == pickle.dumps(want)
        assert sized == _Sized([1])
        assert [(e.src, e.dst, e.tag, e.nbytes) for e in rt.trace.events()] == [
            (0, 1, 9, nbytes), (0, 1, 10, 12345),
        ]
