"""A handshake that makes core's worker thread provably take a given item of a two-lane pass (core._share).

The caller posts the worker's job and then claims an item before it releases the GIL, so it takes the lowest
item left; a wrapped call that waits for the worker leaves the next one to the worker."""
import threading


def with_the_worker(kernel, wait_at: int = 1):
    """kernel, wrapped so that the caller's wait_at-th call waits (up to 10 s) until the worker has made one, and
    the idents of the threads that call it, in call order.  A long vector's first piece runs on the caller alone,
    so with wait_at=2 the worker takes the third piece; verify_all shares every block, so with wait_at=1 the worker
    takes block 1."""
    caller, joined, threads = threading.get_ident(), threading.Event(), []

    def wrapped(*args):
        threads.append(threading.get_ident())
        if threads[-1] != caller:
            joined.set()
        elif threads.count(caller) == wait_at:
            joined.wait(10)
        return kernel(*args)

    return wrapped, threads
