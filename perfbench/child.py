"""Bootstrap for one benchmark child process.

    child.py RESULT_JSON SPANS_NPZ|- STAGE cli GIRIT_ARGS...
    child.py RESULT_JSON SPANS_NPZ|- STAGE query INDEX_DIR TOPICS RUN_OUT SECONDS
    child.py RESULT_JSON - setup setup INDEX_DIR

`cli` calls `girit.cli.main` with the given arguments. `query` is the cold
single-model loop, in passes: each pass is a fresh `Index.load` (so lookups
start with an empty decode cache), then `build_query` + BM25 `rank` (k=1000)
per TD topic. Passes go on until SECONDS are used up (at least one pass),
and the last pass's rankings go to one `write_run`. `setup` imports girit and loads
an index. With a spans path the tracing wrappers are installed before girit
runs, and the spans are written there at exit. The child writes its import
time (and, for `query`, per-topic latencies) to RESULT_JSON.
"""

import json
import sys
import time


def query_loop(index_dir, topics_path, run_out, seconds, tracer):
    from girit import index, retrieval
    from girit.models import ModelParams

    topics = retrieval.parse_topics(topics_path)
    params = ModelParams()
    start = time.perf_counter()
    passes = []
    latency_ms = []
    first = lists = None  # first: a hash of the first pass's rankings
    while not passes or time.perf_counter() - start < float(seconds):
        lists = idx = None  # drop the previous pass's index and rankings first
        pass_start = time.perf_counter()
        idx = index.Index.load(index_dir)
        loop_start = time.perf_counter()
        lists = []
        for topic in topics:
            if tracer is not None:
                tracer.set_request(topic.qid)
            t0 = time.perf_counter()
            bag = retrieval.build_query(topic, "TD", idx.cfg)
            lists.append(retrieval.rank(idx, bag, "BM25", params, k=1000))
            latency_ms.append((time.perf_counter() - t0) * 1e3)
        end = time.perf_counter()
        passes.append({"pass_s": end - pass_start, "loop_s": end - loop_start, "topics": len(lists)})
        # untimed: every pass ranks exactly as the first one did
        digest = hash(tuple(tuple(r.entries) for r in lists))
        if first is None:
            first = digest
        passes[-1]["same"] = digest == first
    with open(run_out, "w", encoding="utf-8") as fh:
        retrieval.write_run(lists, "girit", fh)
    return {"topics": len(topics), "passes": passes, "query_ms": latency_ms}


def main(argv):
    result_path, spans_path, stage, mode, *rest = argv
    t0 = time.perf_counter()
    import girit.cli

    result = {"import_s": time.perf_counter() - t0}
    tracer = None
    if spans_path != "-":
        import tracer as tracing

        tracer = tracing.Tracer(stage)
        tracing.install(tracer)
    code = 0
    if mode == "cli":
        code = girit.cli.main(rest)
    elif mode == "query":
        result.update(query_loop(*rest, tracer))
    elif mode == "setup":
        girit.cli.Index.load(rest[0])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    if tracer is not None:
        tracer.save(spans_path)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
