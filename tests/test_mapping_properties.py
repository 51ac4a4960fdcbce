"""Property-based tests for the Skylake-like decode (seeded stdlib random).

Three properties the engine fast path leans on:

1. decode/encode are mutually inverse bijections over sampled HPA and
   MediaAddress ranges, at test, medium, and paper scale;
2. 2 MiB pages never straddle subarray groups (§4.2's key observation,
   and the reason Siloz can provision VMs at 2 MiB granularity);
3. the memoized ``decode_flat``, the vectorized ``decode_media_batch``
   and the ``MediaAddress`` decode return the same five fields
   ``(socket, socket_bank, channel, row, col)``.

Sampling is driven by ``random.Random(seed)`` so any failure reproduces
from the printed seed alone.
"""

from __future__ import annotations

import random

import pytest

from repro.dram.geometry import DRAMGeometry
from repro.dram.mapping import SkylakeMapping
from repro.dram.media import MediaAddress
from repro.errors import MappingError
from repro.units import CACHE_LINE, MiB

SEED = 20260806
SAMPLES = 400


def _mappings():
    small = DRAMGeometry.small()
    medium = DRAMGeometry.medium()
    paper = DRAMGeometry.paper_default()
    return [
        pytest.param(SkylakeMapping.for_small_geometry(small), id="small"),
        pytest.param(SkylakeMapping(medium), id="medium"),
        pytest.param(SkylakeMapping(paper), id="paper"),
    ]


def _sample_hpas(mapping, rng, n=SAMPLES):
    total = mapping.geom.total_bytes
    # Mix uniform samples with boundary-adjacent ones (chunk, region,
    # and socket edges are where the permutation logic can go wrong).
    hpas = [rng.randrange(total) for _ in range(n)]
    for boundary in (mapping.chunk_bytes, mapping.region_bytes, mapping.geom.socket_bytes):
        for k in range(1, min(total // boundary, 8) + 1):
            edge = k * boundary
            hpas.extend(h for h in (edge - 1, edge) if 0 <= h < total)
    return hpas


class TestRoundTrip:
    @pytest.mark.parametrize("mapping", _mappings())
    def test_decode_encode_identity(self, mapping):
        rng = random.Random(SEED)
        for hpa in _sample_hpas(mapping, rng):
            media = mapping.decode(hpa)
            assert mapping.encode(media) == hpa, f"seed={SEED} hpa={hpa:#x}"

    @pytest.mark.parametrize("mapping", _mappings())
    def test_encode_decode_identity(self, mapping):
        g = mapping.geom
        rng = random.Random(SEED + 1)
        for _ in range(SAMPLES):
            media = MediaAddress.from_socket_bank(
                g,
                rng.randrange(g.sockets),
                rng.randrange(g.banks_per_socket),
                rng.randrange(g.rows_per_bank),
                rng.randrange(g.row_bytes),
            )
            assert mapping.decode(mapping.encode(media)) == media, (
                f"seed={SEED + 1} media={media}"
            )

    @pytest.mark.parametrize("mapping", _mappings())
    def test_decode_injective_on_lines(self, mapping):
        # Distinct sampled cache lines must land on distinct media lines
        # (encode∘decode = id already gives injectivity; this checks the
        # media-side images don't collide either).
        rng = random.Random(SEED + 2)
        total_lines = mapping.geom.total_bytes // 64
        lines = {rng.randrange(total_lines) * 64 for _ in range(SAMPLES)}
        images = {
            (m.socket, m.channel, m.dimm, m.rank, m.bank, m.row, m.col)
            for m in map(mapping.decode, lines)
        }
        assert len(images) == len(lines)


class TestPageIsolation:
    @pytest.mark.parametrize("mapping", _mappings())
    def test_2mib_pages_never_straddle_groups(self, mapping):
        g = mapping.geom
        # At small scale a "2 MiB page" is the proportionally scaled
        # provisioning unit: one chunk (the contiguity quantum).
        page = 2 * MiB if g.socket_bytes >= 64 * MiB else mapping.chunk_bytes
        rng = random.Random(SEED + 3)
        pages = g.total_bytes // page
        for _ in range(min(SAMPLES, pages)):
            start = rng.randrange(pages) * page
            groups = mapping.groups_touched_by_range(start, page)
            assert len(groups) == 1, (
                f"seed={SEED + 3}: page at {start:#x} straddles {groups}"
            )

    def test_straddling_is_possible_at_larger_sizes(self):
        # Sanity for the property above: the invariant is about 2 MiB
        # specifically — big enough ranges do cross groups.
        mapping = SkylakeMapping.for_small_geometry(DRAMGeometry.small())
        g = mapping.geom
        span = g.rows_per_subarray * g.row_group_bytes * 2
        assert len(mapping.groups_touched_by_range(0, span)) > 1


class TestDecodeMemoization:
    @pytest.mark.parametrize("mapping", _mappings())
    def test_cached_equals_uncached(self, mapping):
        rng = random.Random(SEED + 4)
        hpas = _sample_hpas(mapping, rng)
        hpas += hpas[: len(hpas) // 2]  # re-queries must hit, not drift
        for hpa in hpas:
            ref = mapping.decode(hpa)
            flat = mapping.decode_flat(hpa)
            assert flat == (
                ref.socket,
                ref.socket_bank_index(mapping.geom),
                ref.channel,
                ref.row,
                ref.col,
            ), f"seed={SEED + 4} hpa={hpa:#x}"

    @pytest.mark.parametrize("mapping", _mappings())
    def test_decode_batch_equals_scalar_decode(self, mapping):
        # One shape for the scalar and array decodes: row i of the batch
        # is decode_flat(hpas[i]) on all five fields, at chunk, region
        # and socket edges and on the last line too.
        rng = random.Random(SEED + 5)
        total = mapping.geom.total_bytes
        hpas = _sample_hpas(mapping, rng, n=200) + [total - CACHE_LINE, total - 1]
        columns = mapping.decode_media_batch(hpas)
        assert len(columns) == 5
        assert list(zip(*(c.tolist() for c in columns))) == [
            mapping.decode_flat(h) for h in hpas
        ]

    def test_cache_info_reports_hits(self):
        mapping = SkylakeMapping.for_small_geometry(DRAMGeometry.small())
        mapping.decode_flat(0)
        mapping.decode_flat(0)
        assert mapping.decode_flat.cache_info().hits >= 1

    def test_cached_decoders_still_validate(self):
        mapping = SkylakeMapping.for_small_geometry(DRAMGeometry.small())
        bad = mapping.geom.total_bytes
        with pytest.raises(MappingError):
            mapping.decode_flat(bad)
        with pytest.raises(MappingError):
            mapping.subarray_group_of_hpa(bad)

    def test_two_instances_do_not_share_cache(self):
        g1 = DRAMGeometry.small()
        g2 = DRAMGeometry.small(rows_per_bank=128)
        m1 = SkylakeMapping.for_small_geometry(g1)
        m2 = SkylakeMapping.for_small_geometry(g2)
        hpa = g1.total_bytes - 64
        d1, d2 = m1.decode(hpa), m2.decode(hpa)
        assert m1.decode_flat(hpa) == (
            d1.socket, d1.socket_bank_index(g1), d1.channel, d1.row, d1.col
        )
        assert m2.decode_flat(hpa) == (
            d2.socket, d2.socket_bank_index(g2), d2.channel, d2.row, d2.col
        )
        # Each instance owns its own LRU: one miss each, no cross-talk.
        assert m1.decode_flat.cache_info().currsize == 1
        assert m2.decode_flat.cache_info().currsize == 1
