"""Tests for the TSP application (sequential and Orca-parallel)."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.tsp import (
    TspInstance,
    circle_instance,
    random_instance,
    solve_sequential,
)
from repro.apps.tsp.orca_tsp import run_tsp_program
from repro.apps.tsp.problem import generate_jobs
from repro.errors import ApplicationError


def brute_force(instance: TspInstance) -> int:
    """Exact optimum by enumerating all permutations (small instances only)."""
    n = instance.num_cities
    best = float("inf")
    for perm in itertools.permutations(range(1, n)):
        tour = (0,) + perm
        best = min(best, instance.tour_length(tour))
    return int(best)


class TestProblem:
    def test_random_instance_is_symmetric(self):
        instance = random_instance(8, seed=3)
        for i in range(8):
            assert instance.distance(i, i) == 0
            for j in range(8):
                assert instance.distance(i, j) == instance.distance(j, i)

    def test_tiny_instance_rejected(self):
        with pytest.raises(ApplicationError):
            TspInstance(((0, 1), (1, 0)))

    def test_tour_length_requires_permutation(self):
        instance = random_instance(5, seed=1)
        with pytest.raises(ApplicationError):
            instance.tour_length([0, 1, 2, 3, 3])

    def test_circle_instance_optimum_is_perimeter_order(self):
        instance = circle_instance(8)
        ordered = instance.tour_length(list(range(8)))
        shuffled = instance.tour_length([0, 4, 1, 5, 2, 6, 3, 7])
        assert ordered < shuffled

    def test_nearest_neighbour_is_valid_upper_bound(self):
        instance = random_instance(7, seed=5)
        tour, length = instance.nearest_neighbour_tour()
        assert sorted(tour) == list(range(7))
        assert length == instance.tour_length(tour)

    def test_job_generation_covers_the_space(self):
        instance = random_instance(6, seed=2)
        jobs = generate_jobs(instance, depth=3)
        # depth 3: routes start at 0 then choose 2 distinct cities: 5*4 jobs.
        assert len(jobs) == 20
        assert all(job.route[0] == 0 and len(job.route) == 3 for job in jobs)
        assert len({job.route for job in jobs}) == 20

    def test_job_depth_validation(self):
        instance = random_instance(5, seed=2)
        with pytest.raises(ApplicationError):
            generate_jobs(instance, depth=0)
        with pytest.raises(ApplicationError):
            generate_jobs(instance, depth=5)


class TestSequentialSolver:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_brute_force(self, seed):
        instance = random_instance(7, seed=seed)
        result = solve_sequential(instance)
        assert result.best_length == brute_force(instance)
        assert instance.tour_length(result.best_tour) == result.best_length

    def test_circle_instance_optimum(self):
        instance = circle_instance(8)
        result = solve_sequential(instance)
        assert result.best_length == instance.tour_length(list(range(8)))

    def test_work_units_accounted(self):
        instance = random_instance(7, seed=1)
        result = solve_sequential(instance)
        assert result.work_units > 0
        assert result.nodes_expanded > 0

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_optimality_property_random_instances(self, seed):
        instance = random_instance(6, seed=seed)
        result = solve_sequential(instance)
        assert result.best_length == brute_force(instance)


class TestOrcaTsp:
    def test_parallel_matches_sequential(self):
        instance = random_instance(8, seed=7)
        sequential = solve_sequential(instance)
        result = run_tsp_program(instance, num_procs=4)
        best_length, jobs, _nodes = result.value
        assert best_length == sequential.best_length
        assert jobs == len(generate_jobs(instance, 2))

    def test_parallel_same_answer_for_every_processor_count(self):
        instance = random_instance(8, seed=9)
        answers = set()
        for procs in (1, 2, 5):
            result = run_tsp_program(instance, num_procs=procs)
            answers.add(result.value.best_length)
        assert len(answers) == 1

    def test_more_processors_reduce_elapsed_time(self):
        instance = random_instance(9, seed=4)
        t1 = run_tsp_program(instance, num_procs=1).elapsed
        t8 = run_tsp_program(instance, num_procs=8).elapsed
        assert t8 < t1
        # Speedup should be meaningful (well above 2x on 8 CPUs for this size).
        assert t1 / t8 > 2.0

    def test_bound_object_read_write_ratio_is_high(self):
        instance = random_instance(8, seed=3)
        result = run_tsp_program(instance, num_procs=4)
        assert result.rts["local_reads"] > 50 * result.rts["broadcast_writes"]

    def test_runs_on_p2p_rts_too(self):
        instance = random_instance(7, seed=6)
        sequential = solve_sequential(instance)
        result = run_tsp_program(instance, num_procs=3, rts="p2p",
                                 rts_options={"default_policy": "primary-update"})
        assert result.value.best_length == sequential.best_length
