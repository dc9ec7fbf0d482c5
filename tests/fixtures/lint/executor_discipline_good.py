"""Known-good fixture for the executor-discipline rule (R007)."""

from concurrent.futures import ThreadPoolExecutor

from repro.execution import build_executor, execute_chunks


def fan_out(graph, evaluate, chunks):
    # Pools are selected by executor name, so retry, straggler
    # re-dispatch, and resume apply uniformly.
    executor = build_executor(
        "process", graph=graph, evaluate=evaluate, num_workers=4
    )
    return execute_chunks(executor, chunks)


def io_fan_out(urls, fetch):
    # Thread pools are not chunk execution; R007 only guards processes.
    with ThreadPoolExecutor(max_workers=4) as pool:
        return list(pool.map(fetch, urls))
