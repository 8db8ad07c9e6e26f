# Tier-1 gate (vet + build + race tests + bench smoke); see
# scripts/check.sh for the individual steps.
check:
	./scripts/check.sh

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

bench:
	go test -run='^$$' -bench=. -benchmem .

.PHONY: check build test race bench
