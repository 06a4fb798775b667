#!/usr/bin/env sh
# Repository verification gate: formatting, vet, build, full tests, and a
# race-detector pass over the concurrency-bearing packages. Run from the
# repository root:
#
#   ./scripts/check.sh
#
# This is the tier-1 check referenced by ROADMAP.md; CI and pre-commit hooks
# should run exactly this script.
set -eu

cd "$(dirname "$0")/.."

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go vet ./cmd/..."
go vet ./cmd/...

echo "==> go build ./..."
go build ./...

echo "==> go test ./..."
go test ./...

echo "==> bench module (own go.mod, so ./... above does not build it): go vet + go test"
(cd bench && go vet ./... && go test ./...)

echo "==> go test -race -short (root, mat, nn, parallel, dnnmodel, core, synth, adaptcache, measurement, obs, perfmodeler)"
go test -race -short . ./internal/mat/... ./internal/nn/... ./internal/parallel/... ./internal/dnnmodel/... ./internal/core/... ./internal/synth/... ./internal/adaptcache/... ./internal/measurement/... ./internal/obs/... ./cmd/perfmodeler/

echo "==> go test -race -tags faultinject (injected divergence, DNN failure, kernel panic)"
go test -race -tags faultinject . ./internal/nn/... ./internal/core/... ./internal/faultinject/...

echo "==> go test -race (model registry: concurrent load/store on one directory)"
go test -race -count=1 ./internal/modelregistry/

echo "==> go test -race (modeling daemon: concurrent mixed load, disconnect, drain; HTTP client)"
go test -race -count=1 ./internal/server/ ./internal/client/ ./internal/chaosproxy/

echo "==> chaos gate (proxy faults under -race: reset/truncate/stall resumed byte-identical, 5xx bursts retried; fairness; hot reload)"
go test -race -count=1 -run 'TestChaos' ./internal/client/
go test -race -count=1 -run 'TestFairness|TestHotReload|TestHealthz|TestProtect' ./internal/server/
go test -race -count=1 -tags faultinject -run 'TestInjectedEmitPanicBecomesTrailer' ./internal/server/

echo "==> no-retry-storm gate (sustained 503 => bounded attempts, budget-capped sleep)"
go test -race -count=1 -run 'TestChaosSustained503IsBoundedNoRetryStorm|TestChaosRetryBudgetCapsSleep' ./internal/client/

echo "==> warm-path gate (second identical request => zero training epochs) and coalescing gate (K concurrent same-signature requests => one adaptation)"
go test -count=1 -run 'TestModelWarmPathZeroTraining|TestModelCoalescing' ./internal/server/

echo "==> fuzz smoke (5s per reader target)"
for target in FuzzReadText FuzzReadJSON FuzzReadExtraP; do
    go test -run '^$' -fuzz "^${target}\$" -fuzztime 5s ./internal/measurement/
done
go test -run '^$' -fuzz '^FuzzLoadNetwork$' -fuzztime 5s ./internal/nn/
go test -run '^$' -fuzz '^FuzzScanProfile$' -fuzztime 5s ./internal/profile/

echo "==> float32 parity gate (SIMD kernels, float64 kernel bit identity, f32 training/inference vs float64, default-precision golden pin)"
go test -count=1 -run 'TestSIMDKernelParity|TestSIMDKernelDeterminism|TestTanh32sMatchesScalar|TestKernelBitIdentity' ./internal/mat/
go test -count=1 -run 'TestTrainFloat32ParityWithFloat64|TestInferSessionFloat32Parity|TestTopKBatchMatchesTopK|TestDefaultPrecisionGoldenWeights' ./internal/nn/

echo "==> batched-inference allocation gate (InferSession steady state => zero allocations)"
go test -count=1 -run 'TestInferSessionZeroAlloc|TestTopKBatchZeroAlloc' ./internal/nn/

echo "==> adaptation-cache allocation gate (steady-state hit path allocates O(report), not O(adaptation))"
go test -run 'TestAdaptCacheHitAllocations' -count=1 .
go test -bench 'BenchmarkModelProfileCached/hit' -benchtime 2x -benchmem -run '^$' .

echo "==> observability disabled-path allocation gate (metrics/spans off => zero allocations)"
go test -run 'TestObsDisabledAllocations|TestObsEnabledMetricsAllocationFree|TestTracePropagationDisabledZeroAlloc' -count=1 ./internal/obs/

echo "==> trace propagation gate (client traceparent joins server spans; chaos-faulted campaign = one trace across both files)"
go test -race -count=1 -run 'TestTracePropagation|TestChaosResetResumeSingleTrace|TestTraceDisabledNoHeader' ./internal/client/
go test -race -count=1 -run 'TestAdoptTraceParent|TestDeterministicSampler|TestSpanLinks' ./internal/obs/
go test -count=1 ./internal/tracemerge/

echo "==> access-log and statusz gate (every request => exactly one JSONL line, rejects included; live in-flight table)"
go test -race -count=1 -run 'TestAccessLog|TestStatusz|TestRequestSeconds' ./internal/server/

echo "==> streaming campaign gate (O(1) scanner memory, bounded in-flight, checkpoint/resume bit-identity)"
go test -count=1 -run 'TestScannerBoundedMemory' ./internal/profile/
go test -count=1 -run 'TestStreamBoundedInFlight|TestStreamOrderedDelivery' ./internal/parallel/
go test -count=1 -run 'TestModelProfileStreamMatchesSlice|TestModelProfileStreamCheckpointResume' .

echo "All checks passed."
