import pytest

from ellipslam import blas


def thread_counts():
    return [get_count() for get_count, _ in blas._controls]


def test_pins_one_thread_and_restores_on_exit_and_error():
    with blas.single_thread():
        assert all(n == 1 for n in thread_counts())
    controls = blas._controls
    assert controls  # numpy's and scipy's bundled OpenBLAS
    saved = thread_counts()
    try:
        for _, set_count in controls:
            set_count(2)
        with blas.single_thread():
            assert all(n == 1 for n in thread_counts())
        assert all(n == 2 for n in thread_counts())
        with pytest.raises(RuntimeError):
            with blas.single_thread():
                raise RuntimeError("inside")
        assert all(n == 2 for n in thread_counts())
    finally:
        for (_, set_count), n in zip(controls, saved):
            set_count(n)


def test_missing_libraries_are_left_alone(monkeypatch):
    monkeypatch.setattr(blas, "_LIBRARIES", (("numpy", "no-such-library-*.so", "none_{}"),))
    monkeypatch.setattr(blas, "_controls", None)
    with blas.single_thread():
        pass
    assert blas._controls == []
