//! The flag table of every command form, hand-aligned like the usage
//! text it renders: one row per flag. A row shared by several forms is
//! defined once.

use crate::args::{Flag, Form};

// Input and the protocol's parameters.
const INPUT: Flag = Flag::required("input", "FILE", "CSV point file, one point per line \
    (a non-numeric first row is skipped as a header)");
const EPS: Flag = Flag::required("eps", "E", "Eps_local, the local DBSCAN radius");
const MIN_PTS: Flag = Flag::required("min-pts", "M",
    "MinPts_local, the local DBSCAN core threshold");
const SITES: Flag = Flag::required("sites", "K", "number of sites, at least 1");
const MODEL: Flag = Flag::value("model", "scor|kmeans", "local model (default scor)");
const EPS_GLOBAL: Flag = Flag::value("eps-global", "MULT|max", "Eps_global as a positive \
    multiple of --eps, or max for the largest representative's ε-range (default 2.0)");
const PARTITIONER: Flag = Flag::value("partitioner", "random|roundrobin|stripes",
    "how the points are split across the sites (default random)");
const SPLIT_SEED: Flag = Flag::value("seed", "N",
    "seed of the random split (default 42; --partitioner random only)");

// How each site's DBSCAN runs.
const INDEX: Flag = Flag::value("index", "KIND",
    "index backend KIND: linear|grid|kdtree|rstar (default rstar)");
const THREADS: Flag = Flag::value("threads", "T", "DBSCAN worker threads; 1 = sequential \
    (default), 0 = all cores. The clustering is identical for every value");
const PARTITIONS: Flag = Flag::value("partitions", "P", "spatial partitions per site's local \
    phase; 1 = one index over the whole shard (default), 0 = one partition per worker thread. \
    In 1-3 dimensions a partition is a contiguous range of the occupied cells of the site's one \
    grid; above that it is an ε-halo'd stripe along the shard's widest-spread axis with its own \
    private index. Labels are identical for every value");

// Outputs and observability.
const LABELS_OUT: Flag = Flag::value("out", "FILE",
    "write the points with a label column (cluster id, or noise) as CSV");
const TRACE: Flag = Flag::switch("trace", "print the phase-span tree and counter scopes");
const METRICS_OUT: Flag = Flag::value("metrics-out", "FILE", "write the full RunReport as JSON");
const RUN_ID: Flag = Flag::value("run-id", "ID", "shared run identity stamped into the report; \
    report merge matches fleet reports on it");
const LINK: Flag = Flag::value("link", "lan|wan|slow_uplink|BW:LAT_MS", "link for the report's \
    modeled upload/broadcast spans (default wan); custom links are BYTES_PER_SEC:LATENCY_MS, \
    e.g. 125000:250");
const ADMIN_ADDR: Flag = Flag::value("admin-addr", "ADDR", "serve live telemetry over HTTP \
    while running: /metrics (Prometheus), /healthz, /readyz, /report (partial RunReport JSON); \
    implies recording even without --trace/--metrics-out");

// Rendezvous with the server.
const CONNECT: Flag = Flag::value("connect", "ADDR", "the server's HOST:PORT");
const POLL_ADDR_FILE: Flag = Flag::value("addr-file", "FILE",
    "poll this file for the server's address instead of --connect");
const WAIT_MS: Flag = Flag::value("wait-ms", "N", "how long to poll --addr-file (default 10000)");

pub static GENERATE: Form = Form {
    command: "generate", binary: None, operands: "",
    summary: "write one of the paper's synthetic data sets as CSV (x,y)", about: "",
    flags: &[Flag::required("set", "a|b|c", "which of the paper's data sets (its Figure 6)"),
        Flag::value("seed", "N", "generator seed (default 42)"),
        Flag::value("n", "N", "points of data set a (default its paper size); --set a only"),
        Flag::value("out", "FILE", "write the CSV here; without it the CSV goes to stdout and \
            the status line to stderr"),
        Flag::switch("truth", "append each point's true cluster label as a last column"),
        TRACE, METRICS_OUT],
};

pub static CENTRAL: Form = Form {
    command: "central", binary: None, operands: "",
    summary: "central DBSCAN over a CSV point file", about: "",
    flags: &[INPUT, EPS, MIN_PTS, INDEX, THREADS, LABELS_OUT, TRACE, METRICS_OUT],
};

pub static RUN: Form = Form {
    command: "run", binary: None, operands: "",
    summary: "the DBDC protocol over K simulated sites", about: "",
    flags: &[INPUT, EPS, MIN_PTS, SITES, MODEL, EPS_GLOBAL, PARTITIONER, SPLIT_SEED,
        Flag::switch("threaded", "run the sites concurrently, one thread each"),
        THREADS, PARTITIONS, INDEX, LABELS_OUT, TRACE, METRICS_OUT, LINK, RUN_ID],
};

pub static COMPARE: Form = Form {
    command: "compare", binary: None, operands: "",
    summary: "run central DBSCAN and DBDC and report the paper's quality measures", about: "",
    flags: &[INPUT, EPS, MIN_PTS, SITES, MODEL, EPS_GLOBAL, SPLIT_SEED, THREADS, PARTITIONS,
        INDEX, TRACE, METRICS_OUT, LINK, RUN_ID],
};

pub static TUNE: Form = Form {
    command: "tune", binary: None, operands: "", about: "",
    summary: "sweep Eps_global candidates, score each distributed run by its ground-truth-free \
        DBCV, print the sweep table, select the argmax",
    flags: &[INPUT, EPS, MIN_PTS, SITES, MODEL,
        Flag::value("candidates", "LIST", "comma-separated Eps_global candidates, multipliers \
            or max (default 1.0,1.5,2.0,2.5,3.0,4.0,max)"),
        PARTITIONER, SPLIT_SEED, THREADS, INDEX, TRACE, METRICS_OUT, RUN_ID],
};

pub static PLOT: Form = Form {
    command: "plot", binary: None, operands: "",
    summary: "render a 2-d CSV point file as an SVG scatter plot",
    about: "With --eps and --min-pts the points are clustered with DBSCAN first and coloured \
        by cluster; --index applies only then.",
    flags: &[INPUT,
        Flag::required("out", "FILE", "the SVG file to write"),
        Flag::value("eps", "E", "DBSCAN radius (give --min-pts too)"),
        Flag::value("min-pts", "M", "DBSCAN core threshold (give --eps too)"),
        Flag::value("title", "T", "title drawn above the plot"),
        INDEX, TRACE, METRICS_OUT],
};

pub static SUGGEST: Form = Form {
    command: "suggest", binary: None, operands: "",
    summary: "suggest an Eps via the sorted k-distance knee", about: "",
    flags: &[INPUT,
        Flag::value("k", "K", "neighbour rank of the k-distance curve (default 4)"),
        INDEX, TRACE, METRICS_OUT],
};

pub static STREAM: Form = Form {
    command: "stream", binary: None, operands: "", about: "",
    summary: "replay the file as a stream into incremental client sessions and an incremental \
        server; report transmissions saved by drift gating",
    flags: &[INPUT, EPS, MIN_PTS, SITES,
        Flag::value("batch", "N", "points per site between drift checks (default 200)"),
        Flag::value("drift", "D", "a site sends its model only once its drift exceeds D \
            (default 0.1)"),
        TRACE, METRICS_OUT],
};

pub static SERVE: Form = Form {
    command: "serve", binary: Some("dbdc-server"), operands: "",
    summary: "the DBDC server half over real TCP",
    about: "The report's upload/global/broadcast spans are measured socket walls, not \
        cost-model output; wire traffic lands under net/server. On a deadline or protocol error \
        the partial report is still written, marked with param clean=false.",
    flags: &[SITES, EPS, MIN_PTS, EPS_GLOBAL, INDEX,
        Flag::value("bind", "ADDR", "listen address (default 127.0.0.1:0)"),
        Flag::value("addr-file", "FILE", "write the bound address here (atomically) for sites \
            to poll"),
        Flag::value("read-timeout-ms", "N", "per-read socket timeout (default 2000); also paces \
            broadcast resends"),
        Flag::value("resend", "N", "broadcast resends per connection (default 3)"),
        Flag::value("deadline-ms", "N", "overall run ceiling (default 60000)"),
        Flag::value("drain-ms", "N", "replay window after all sites acked (default 1000; keep \
            above the sites' backoff ceiling)"),
        RUN_ID, ADMIN_ADDR, TRACE, METRICS_OUT],
};

pub static SITE: Form = Form {
    command: "site", binary: Some("dbdc-site"), operands: "",
    summary: "one DBDC client site over real TCP",
    about: "Give the server's address with --connect, or poll for it with --addr-file.\n\
        --partitioner and --seed must match every other site, so the derived partitions are \
        disjoint and complete.\n\
        With --admin-addr, /readyz turns 200 once the session handshake has completed.",
    flags: &[INPUT,
        Flag::required("site", "I", "this site's number, 0..K-1"),
        SITES, EPS, MIN_PTS, CONNECT, POLL_ADDR_FILE, WAIT_MS, PARTITIONER, SPLIT_SEED, MODEL,
        EPS_GLOBAL, INDEX, THREADS, PARTITIONS,
        Flag::value("retries", "N", "session attempts (default 5)"),
        Flag::value("retry-base-ms", "N", "first backoff delay (default 50)"),
        Flag::value("retry-max-ms", "N", "backoff ceiling (default 800)"),
        Flag::value("connect-timeout-ms", "N", "connect timeout (default 2000)"),
        Flag::value("read-timeout-ms", "N", "per-read socket timeout (default 3000)"),
        Flag::value("out", "FILE", "write this site's final labels as original_index,label \
            lines (-1 = noise)"),
        RUN_ID, ADMIN_ADDR, TRACE, METRICS_OUT],
};

pub static PROXY: Form = Form {
    command: "proxy", binary: None, operands: "",
    summary: "a fault-injecting TCP forwarder for torture runs",
    about: "Give the server's address with --connect, or poll for it with --addr-file. The \
        report carries the injected-fault ledger under proxy/c2s (site->server) and proxy/s2c \
        (server->site); --admin-addr serves it live on /metrics while the proxy forwards.",
    flags: &[CONNECT, POLL_ADDR_FILE, WAIT_MS,
        Flag::value("proxy-addr-file", "FILE", "write the proxy's listen address here for sites \
            to rendezvous on"),
        Flag::value("seed", "N", "deterministic fault schedule seed (default 1)"),
        Flag::value("drop", "P", "per-frame drop probability (default 0)"),
        Flag::value("truncate", "P", "per-frame truncation probability (default 0)"),
        Flag::value("bitflip", "P", "per-frame bit-flip probability (default 0)"),
        Flag::value("delay-p", "P", "per-frame delay probability (default 0)"),
        Flag::value("delay-ms", "N", "length of an injected delay (default 10)"),
        Flag::value("duration-ms", "N", "how long to forward before shutting down \
            (default 30000)"),
        RUN_ID, ADMIN_ADDR, TRACE, METRICS_OUT],
};

pub static WATCH: Form = Form {
    command: "watch", binary: None, operands: "ADDR [ADDR...]",
    summary: "live fleet telemetry from --admin-addr endpoints",
    about: "Each ADDR is a process's --admin-addr. Every tick polls /metrics and /readyz, \
        computes deltas against the previous scrape, and renders frame/byte rates, retry and \
        fault totals, per-phase latency percentiles, and session state for the whole fleet. \
        The first tick (and --once) shows process-lifetime averages. Continuous mode exits on \
        its own once every peer has been unreachable for three ticks (the fleet exited).",
    flags: &[Flag::value("interval", "MS", "poll period (default 1000)"),
        Flag::switch("once", "scrape once, print the table, exit (no screen clearing; for \
            scripts and CI)")],
};

pub static REPORT: Form = Form {
    command: "report", binary: None, operands: "",
    summary: "render a --metrics-out JSON report and check what it carries",
    about: "See also report diff, report merge and report timeline.",
    flags: &[Flag::required("input", "FILE", "the JSON report"),
        Flag::value("require", "NAME,...", "fail unless every name is present as a phase span \
            or histogram scope"),
        Flag::value("require-counter", "NAME,...", "fail unless every counter is nonzero in \
            some scope"),
        Flag::value("require-quality", "SCOPE,...", "fail unless every quality scope (global, \
            or a per-site name like site[0]) carries a finite DBCV"),
        Flag::switch("hist", "print only the histogram table")],
};

pub static REPORT_DIFF: Form = Form {
    command: "report diff", binary: None, operands: "OLD NEW",
    summary: "compare two reports cell by cell and exit nonzero on regression",
    about: "Cells are each histogram's p50/p99 plus the quality/* cells. Quality cells gate \
        directionally: rises pass, drops beyond the absolute DROP fail.",
    flags: &[Flag::value("threshold", "FRACTION", "histogram tolerance is max(FRACTION, baseline \
            cell spread) (default 0.25); never loosens the quality cells"),
        Flag::value("quality-threshold", "DROP", "largest absolute drop a quality cell may \
            take (default 0.10)"),
        Flag::value("only", "SUBSTR", "gate just the cells whose name contains SUBSTR")],
};

pub static REPORT_MERGE: Form = Form {
    command: "report merge", binary: None, operands: "SERVER [SITE...]",
    summary: "join one server report with its site reports into one fleet report",
    about: "Reports are matched by --run-id: counters summed, histograms bucket-merged, spans \
        grafted under per-site subtrees. A lone server report merges into a degenerate fleet \
        report (with a warning), which is what a killed fleet leaves behind.",
    flags: &[Flag::required("out", "FILE", "the merged report")],
};

pub static REPORT_TIMELINE: Form = Form {
    command: "report timeline", binary: None, operands: "REPORT",
    summary: "render a (merged) report's span forest as Chrome trace_event JSON",
    about: "One pid per process, clocks aligned via the handshake spans; open the file in \
        chrome://tracing or ui.perfetto.dev.",
    flags: &[Flag::required("out", "FILE", "the trace JSON to write")],
};
