package telemetry

import "net/http"

// The live dashboard: one embedded, dependency-free HTML page that polls
// /history, /skipmap, /workload, and /adaptation and renders
// the adaptation story the paper tells in figures — the convergence
// curve (skip ratio and latency quantiles improving as the zonemaps
// learn the workload), a per-zone effectiveness heatmap, and the
// adaptation-ledger timeline (zone-lifecycle events with provenance plus
// per-column skip ROI). Everything is inline SVG drawn by vanilla JS, so
// the page works from a file:// save or an air-gapped host; there is no
// external CSS, JS, or font.

// handleDash serves the dashboard page.
func (s *Server) handleDash(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = w.Write([]byte(dashHTML))
}

const dashHTML = `<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>adskip dashboard</title>
<style>
:root {
  --surface: #fcfcfb;
  --ink: #1f1f1e;
  --ink-2: #5c5c58;
  --ink-3: #8a8a84;
  --grid: #e7e7e3;
  --series-1: #2a78d6; /* skip ratio / p50 */
  --series-2: #eb6834; /* p95 */
  --card: #ffffff;
  --edge: #e2e2de;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface: #1a1a19;
    --ink: #ecece9;
    --ink-2: #a8a8a2;
    --ink-3: #7c7c76;
    --grid: #2e2e2c;
    --series-1: #3987e5;
    --series-2: #d95926;
    --card: #222221;
    --edge: #333331;
  }
}
* { box-sizing: border-box; }
body {
  margin: 0; padding: 20px 24px 40px;
  background: var(--surface); color: var(--ink);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}
h1 { font-size: 18px; font-weight: 600; margin: 0 0 2px; }
h2 { font-size: 13px; font-weight: 600; margin: 0 0 8px; color: var(--ink); }
.sub { color: var(--ink-2); font-size: 12px; margin-bottom: 18px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin-bottom: 18px; }
.tile {
  background: var(--card); border: 1px solid var(--edge); border-radius: 8px;
  padding: 10px 16px; min-width: 130px;
}
.tile .v { font-size: 22px; font-weight: 650; font-variant-numeric: tabular-nums; }
.tile .k { font-size: 11px; color: var(--ink-2); text-transform: uppercase; letter-spacing: .04em; }
.card {
  background: var(--card); border: 1px solid var(--edge); border-radius: 8px;
  padding: 14px 16px; margin-bottom: 16px; position: relative;
}
.legend { display: flex; gap: 16px; font-size: 12px; color: var(--ink-2); margin-bottom: 4px; }
.legend .sw { display: inline-block; width: 10px; height: 10px; border-radius: 2px; margin-right: 5px; vertical-align: -1px; }
svg text { fill: var(--ink-3); font: 11px system-ui, sans-serif; }
svg .axis { stroke: var(--grid); stroke-width: 1; }
.tip {
  position: absolute; pointer-events: none; display: none;
  background: var(--card); border: 1px solid var(--edge); border-radius: 6px;
  padding: 6px 10px; font-size: 12px; box-shadow: 0 2px 8px rgba(0,0,0,.15);
  white-space: nowrap; z-index: 2;
}
.tip b { font-variant-numeric: tabular-nums; font-weight: 600; }
.hm-row { display: flex; align-items: center; gap: 10px; margin: 6px 0; }
.hm-label { width: 150px; flex: none; font-size: 12px; color: var(--ink-2);
  overflow: hidden; text-overflow: ellipsis; white-space: nowrap; }
.hm-strip { display: flex; gap: 2px; flex: 1; height: 18px; }
.hm-strip div { border-radius: 2px; min-width: 1px; }
.hm-scale { display: flex; align-items: center; gap: 8px; font-size: 11px; color: var(--ink-2); margin-top: 10px; }
.hm-scale .bar { width: 120px; height: 8px; border-radius: 2px; }
details { margin-top: 8px; }
summary { cursor: pointer; font-size: 12px; color: var(--ink-2); }
table { border-collapse: collapse; font-size: 12px; margin-top: 8px; }
td, th { padding: 3px 10px 3px 0; text-align: right; font-variant-numeric: tabular-nums; }
th { color: var(--ink-2); font-weight: 500; }
td:first-child, th:first-child { text-align: left; }
.err { color: var(--ink-2); font-size: 12px; }
</style>
</head>
<body>
<h1>adskip — adaptation dashboard</h1>
<div class="sub" id="status">connecting&hellip;</div>

<div class="tiles">
  <div class="tile"><div class="v" id="t-queries">–</div><div class="k">queries</div></div>
  <div class="tile"><div class="v" id="t-skip">–</div><div class="k">skip ratio</div></div>
  <div class="tile"><div class="v" id="t-p95">–</div><div class="k">p95 latency</div></div>
  <div class="tile"><div class="v" id="t-events">–</div><div class="k">adaptation events</div></div>
</div>

<div class="card">
  <h2>Skip ratio — convergence</h2>
  <div id="skip-chart"></div>
  <div class="tip" id="skip-tip"></div>
</div>

<div class="card">
  <h2>Query latency</h2>
  <div class="legend">
    <span><span class="sw" style="background:var(--series-1)"></span>p50</span>
    <span><span class="sw" style="background:var(--series-2)"></span>p95</span>
  </div>
  <div id="lat-chart"></div>
  <div class="tip" id="lat-tip"></div>
</div>

<div class="card">
  <h2>Zone heatmap — prune hit ratio per zone</h2>
  <div class="legend" id="shard-picker" style="display:none">shard:
    <select id="shard-sel"><option value="">all</option></select>
  </div>
  <div id="heatmap"><div class="err">waiting for skipmap&hellip;</div></div>
  <div class="hm-scale">
    <span>0%</span>
    <div class="bar" id="hm-scalebar"></div>
    <span>100% of probes pruned</span>
  </div>
</div>

<div class="card">
  <h2>Hottest query templates</h2>
  <div id="workload"><div class="err">waiting for workload&hellip;</div></div>
</div>

<div class="card">
  <h2>Adaptation timeline — zone lifecycle &amp; skip ROI</h2>
  <div id="adaptation"><div class="err">waiting for adaptation ledger&hellip;</div></div>
</div>

<div class="card">
  <h2>Latest sample</h2>
  <details open><summary>table view</summary><div id="latest"></div></details>
</div>

<script>
"use strict";
// Sequential blue ramp, light -> dark (magnitude encoding for the heatmap).
const RAMP = ["#cde2fb","#a7cbf4","#7fb0ea","#5a93dd","#3b76c9","#2459a4","#163f7d","#0d366b"];
function rampColor(t) {
  t = Math.max(0, Math.min(1, t));
  const x = t * (RAMP.length - 1), i = Math.min(RAMP.length - 2, Math.floor(x)), f = x - i;
  const a = RAMP[i], b = RAMP[i + 1];
  const ch = (h, o) => parseInt(h.slice(o, o + 2), 16);
  const mix = o => Math.round(ch(a, o) + (ch(b, o) - ch(a, o)) * f);
  return "rgb(" + mix(1) + "," + mix(3) + "," + mix(5) + ")";
}
document.getElementById("hm-scalebar").style.background =
  "linear-gradient(90deg," + RAMP.join(",") + ")";

const W = 860, H = 180, M = {l: 46, r: 12, t: 8, b: 22};
function cssVar(n) { return getComputedStyle(document.documentElement).getPropertyValue(n).trim(); }
function fmtDur(sec) {
  if (!isFinite(sec) || sec <= 0) return "0";
  if (sec < 1e-3) return (sec * 1e6).toFixed(0) + "µs";
  if (sec < 1) return (sec * 1e3).toFixed(2) + "ms";
  return sec.toFixed(2) + "s";
}
function fmtCount(n) {
  if (n >= 1e9) return (n / 1e9).toFixed(1) + "B";
  if (n >= 1e6) return (n / 1e6).toFixed(1) + "M";
  if (n >= 1e3) return (n / 1e3).toFixed(1) + "k";
  return String(n);
}
function fmtTime(iso) {
  const d = new Date(iso);
  return d.toLocaleTimeString(undefined, {hour12: false});
}

// lineChart renders one single-axis SVG line chart with a shared time
// domain, recessive grid, 2px series lines, and a crosshair + tooltip.
function lineChart(el, tipEl, samples, series, fmtY) {
  if (!samples.length) { el.innerHTML = '<div class="err">no samples yet</div>'; return; }
  const t0 = new Date(samples[0].time).getTime();
  const t1 = new Date(samples[samples.length - 1].time).getTime();
  const span = Math.max(1, t1 - t0);
  let ymax = 0;
  for (const s of samples) for (const sr of series) ymax = Math.max(ymax, sr.get(s));
  if (ymax <= 0) ymax = 1;
  ymax *= 1.08;
  const x = t => M.l + (W - M.l - M.r) * (new Date(t).getTime() - t0) / span;
  const y = v => H - M.b - (H - M.b - M.t) * (v / ymax);

  let g = "";
  const ticks = 4;
  for (let i = 0; i <= ticks; i++) {
    const v = ymax * i / ticks, yy = y(v);
    g += '<line class="axis" x1="' + M.l + '" x2="' + (W - M.r) + '" y1="' + yy + '" y2="' + yy + '"/>';
    g += '<text x="' + (M.l - 6) + '" y="' + (yy + 3) + '" text-anchor="end">' + fmtY(v) + "</text>";
  }
  const nt = Math.min(6, samples.length);
  for (let i = 0; i < nt; i++) {
    const s = samples[Math.floor(i * (samples.length - 1) / Math.max(1, nt - 1))];
    g += '<text x="' + x(s.time) + '" y="' + (H - 6) + '" text-anchor="middle">' + fmtTime(s.time) + "</text>";
  }
  for (const sr of series) {
    let d = "";
    for (let i = 0; i < samples.length; i++) {
      d += (i ? "L" : "M") + x(samples[i].time).toFixed(1) + " " + y(sr.get(samples[i])).toFixed(1);
    }
    g += '<path d="' + d + '" fill="none" stroke="' + sr.color + '" stroke-width="2" stroke-linejoin="round"/>';
  }
  g += '<line id="xh" class="axis" y1="' + M.t + '" y2="' + (H - M.b) + '" x1="-9" x2="-9" style="stroke:' + cssVar("--ink-3") + '"/>';
  el.innerHTML = '<svg viewBox="0 0 ' + W + " " + H + '" width="100%" role="img" aria-label="time series chart">' + g + "</svg>";

  const svg = el.querySelector("svg"), xh = el.querySelector("#xh");
  svg.onmousemove = ev => {
    const r = svg.getBoundingClientRect();
    const mx = (ev.clientX - r.left) * W / r.width;
    let best = 0, bd = Infinity;
    for (let i = 0; i < samples.length; i++) {
      const d = Math.abs(x(samples[i].time) - mx);
      if (d < bd) { bd = d; best = i; }
    }
    const s = samples[best], sx = x(s.time);
    xh.setAttribute("x1", sx); xh.setAttribute("x2", sx);
    let html = fmtTime(s.time);
    for (const sr of series) {
      html += '<br><span class="sw" style="display:inline-block;width:8px;height:8px;border-radius:2px;background:' +
        sr.color + ';margin-right:4px"></span>' + sr.name + " <b>" + fmtY(sr.get(s)) + "</b>";
    }
    const tip = tipEl;
    tip.innerHTML = html;
    tip.style.display = "block";
    const px = (ev.clientX - r.left), flip = px > r.width * 0.7;
    tip.style.left = (px + (flip ? -tip.offsetWidth - 12 : 14)) + "px";
    tip.style.top = (ev.clientY - r.top + 10) + "px";
  };
  svg.onmouseleave = () => { tipEl.style.display = "none"; xh.setAttribute("x1", -9); xh.setAttribute("x2", -9); };
}

// The shard picker narrows the heatmap to one shard of a sharded
// catalog; it stays hidden on unsharded databases.
let shardFilter = "";
function syncShardPicker(tables) {
  let max = 0;
  for (const t of tables || []) if ((t.shards || 0) > max) max = t.shards;
  const picker = document.getElementById("shard-picker");
  const sel = document.getElementById("shard-sel");
  if (!max) { picker.style.display = "none"; return; }
  picker.style.display = "";
  if (sel.options.length !== max + 1) {
    let opts = '<option value="">all</option>';
    for (let i = 1; i <= max; i++) opts += '<option value="' + i + '">' + i + "</option>";
    sel.innerHTML = opts;
    sel.value = shardFilter;
    sel.onchange = () => { shardFilter = sel.value; };
  }
}
function renderHeatmap(tables) {
  const el = document.getElementById("heatmap");
  syncShardPicker(tables);
  let html = "";
  for (const t of tables || []) {
    if (shardFilter && String(t.shard || "") !== shardFilter) continue;
    const label = t.table + (t.shard ? " [shard " + t.shard + "/" + t.shards + "]" : "");
    for (const c of t.columns || []) {
      const zones = c.zone_detail || [];
      if (!zones.length) continue;
      const total = Math.max(1, t.rows);
      let cells = "";
      for (const z of zones) {
        const probes = (z.hits || 0) + (z.misses || 0);
        const ratio = probes ? z.hits / probes : 0;
        const w = Math.max(0.2, 100 * (z.hi - z.lo) / total);
        cells += '<div style="flex:' + w.toFixed(3) + ' 1 0;background:' + rampColor(ratio) +
          '" title="' + label + "." + c.column + " rows [" + z.lo + "," + z.hi + ") min " + z.min +
          " max " + z.max + " — " + (100 * ratio).toFixed(0) + "% of " + probes + ' probes pruned"></div>';
      }
      html += '<div class="hm-row"><div class="hm-label" title="' + label + "." + c.column + '">' +
        label + "." + c.column + " · " + zones.length + (c.zones_truncated ? "+" + c.zones_truncated : "") +
        ' zones</div><div class="hm-strip">' + cells + "</div></div>";
    }
  }
  el.innerHTML = html || '<div class="err">no introspectable skippers (adaptive policy exposes zones)</div>';
}

// renderWorkload paints the per-template table from /workload: the
// top-10 templates by total execution time, with each template's share
// of the recorded CPU time.
function renderWorkload(w) {
  const el = document.getElementById("workload");
  const ts = (w && w.templates) || [];
  if (!ts.length) {
    el.innerHTML = '<div class="err">no query templates recorded yet</div>';
    return;
  }
  let total = 0, sharded = false;
  for (const t of ts) { total += t.total_seconds; if (t.shards_scanned || t.shards_pruned) sharded = true; }
  let html = "<table><tr><th>template</th><th>calls</th><th>errors</th><th>mean</th><th>p95</th><th>skip</th>" +
    (sharded ? "<th>shards</th>" : "") + "<th>cpu</th></tr>";
  for (const t of ts) {
    const cpu = total > 0 ? 100 * t.total_seconds / total : 0;
    const sc = (t.shards_scanned || 0) + (t.shards_pruned || 0);
    html += "<tr><td>" + t.fingerprint.replace(/&/g, "&amp;").replace(/</g, "&lt;") +
      "</td><td>" + fmtCount(t.calls) + "</td><td>" + fmtCount(t.errors) +
      "</td><td>" + fmtDur(t.mean_us / 1e6) + "</td><td>" + fmtDur(t.p95_us / 1e6) +
      "</td><td>" + (100 * t.skip_ratio).toFixed(1) + "%</td>" +
      (sharded ? "<td>" + (sc ? fmtCount(t.shards_pruned || 0) + "/" + fmtCount(sc) + " pruned" : "–") + "</td>" : "") +
      "<td>" + cpu.toFixed(1) + "%</td></tr>";
  }
  el.innerHTML = html + "</table>" +
    '<div class="err">' + w.total_templates + " templates tracked · " +
    fmtCount(w.recorded_calls) + " calls recorded · sorted by " + w.sorted_by + "</div>";
}

// renderAdaptation paints the adaptation-ledger panel from /adaptation:
// each column's skip ROI (rows skipped earned vs probe + maintenance
// work paid, with dead-zone counts), then the most recent zone-lifecycle
// events — what changed, why, and which query template triggered it.
function renderAdaptation(a) {
  const el = document.getElementById("adaptation");
  const evs = (a && a.events) || [], roi = (a && a.roi) || [];
  if (!evs.length && !roi.length) {
    el.innerHTML = '<div class="err">no adaptation events recorded yet</div>';
    return;
  }
  const esc = s => String(s).replace(/&/g, "&amp;").replace(/</g, "&lt;");
  let html = "";
  if (roi.length) {
    html += "<table><tr><th>column</th><th>kind</th><th>zones</th><th>rows skipped</th><th>probes</th><th>maint zones</th><th>net rows</th><th>dead</th></tr>";
    for (const r of roi) {
      const label = r.table + (r.shard ? "/s" + r.shard : "") + "." + r.column;
      html += "<tr><td>" + esc(label) + "</td><td>" + esc(r.kind) + "</td><td>" + fmtCount(r.zones) +
        "</td><td>" + fmtCount(r.rows_skipped) + "</td><td>" + fmtCount(r.zone_probes) +
        "</td><td>" + fmtCount(r.maintenance_zones) + "</td><td>" + fmtCount(Math.round(r.net_benefit_rows)) +
        "</td><td>" + (r.dead_zones ? fmtCount(r.dead_zones) : "–") + "</td></tr>";
    }
    html += "</table>";
  }
  if (evs.length) {
    const recent = evs.slice(-12).reverse();
    html += "<table><tr><th>time</th><th>column</th><th>event</th><th>cause</th><th>zones</th><th>triggered by</th></tr>";
    for (const e of recent) {
      html += "<tr><td>" + fmtTime(e.time) + "</td><td>" +
        esc(e.table + (e.shard ? "/s" + e.shard : "") + "." + e.column) +
        "</td><td>" + esc(e.kind) + "</td><td>" + esc(e.cause) +
        "</td><td>" + e.zones_before + "&rarr;" + e.zones_after +
        "</td><td>" + (e.fingerprint ? esc(e.fingerprint) : "–") + "</td></tr>";
    }
    html += "</table>";
  }
  html += '<div class="err">' + (a.total || 0) + " ledger events recorded · " +
    (a.dropped || 0) + " dropped from the ring</div>";
  el.innerHTML = html;
}

function renderLatest(s) {
  if (!s) return;
  const rows = [
    ["queries", fmtCount(s.queries)],
    ["rows scanned", fmtCount(s.rows_scanned)],
    ["rows skipped", fmtCount(s.rows_skipped)],
    ["skip ratio", (100 * s.skip_ratio).toFixed(1) + "%"],
    ["latency p50", fmtDur(s.latency_p50_seconds)],
    ["latency p95", fmtDur(s.latency_p95_seconds)],
    ["slow queries", fmtCount(s.slow_queries)],
    ["adaptation events", fmtCount(s.adapt_events)],
  ];
  let html = "<table><tr><th>metric</th><th>value</th></tr>";
  for (const [k, v] of rows) html += "<tr><td>" + k + "</td><td>" + v + "</td></tr>";
  for (const c of s.columns || []) {
    html += "<tr><td>" + c.table + "." + c.column + " skip ratio</td><td>" +
      (100 * c.skip_ratio).toFixed(1) + "% (" + c.zones + " zones" + (c.enabled ? "" : ", disabled") + ")</td></tr>";
  }
  document.getElementById("latest").innerHTML = html + "</table>";
}

async function refresh() {
  try {
    const [histR, skipR, wlR, adaptR] = await Promise.all(
      [fetch("/history"), fetch("/skipmap?zones=256"), fetch("/workload?k=10"),
       fetch("/adaptation?dead=8")]);
    const hist = await histR.json();
    const skip = await skipR.json();
    const wl = await wlR.json();
    const adapt = await adaptR.json();
    const samples = hist.samples || [];
    const latest = samples[samples.length - 1];
    if (latest) {
      document.getElementById("t-queries").textContent = fmtCount(latest.queries);
      document.getElementById("t-skip").textContent = (100 * latest.skip_ratio).toFixed(1) + "%";
      document.getElementById("t-p95").textContent = fmtDur(latest.latency_p95_seconds);
      document.getElementById("t-events").textContent = fmtCount(latest.adapt_events);
    }
    const s1 = cssVar("--series-1"), s2 = cssVar("--series-2");
    lineChart(document.getElementById("skip-chart"), document.getElementById("skip-tip"), samples,
      [{name: "skip ratio", color: s1, get: s => s.skip_ratio}],
      v => (100 * v).toFixed(0) + "%");
    lineChart(document.getElementById("lat-chart"), document.getElementById("lat-tip"), samples,
      [{name: "p50", color: s1, get: s => s.latency_p50_seconds},
       {name: "p95", color: s2, get: s => s.latency_p95_seconds}],
      fmtDur);
    renderHeatmap(skip);
    renderWorkload(wl);
    renderAdaptation(adapt);
    renderLatest(latest);
    document.getElementById("status").textContent =
      "sampling every " + (hist.interval_ns / 1e9).toFixed(1) + "s · " +
      (hist.total || 0) + " samples taken · updated " + new Date().toLocaleTimeString(undefined, {hour12: false});
  } catch (err) {
    document.getElementById("status").textContent = "fetch failed: " + err;
  }
  setTimeout(() => { document.hidden ? document.addEventListener("visibilitychange", refresh, {once: true}) : refresh(); }, 2000);
}
refresh();
</script>
</body>
</html>
`
