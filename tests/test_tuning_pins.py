"""Exact pins of the Table II search and the 4D sweep.

Recorded on the tree where AxoNN and the Megatron-LM / DeepSpeed models
still had separate configurations, enumerators, tuners and estimates,
so folding them into one configuration model is held to the last bit:
the tuner's chosen row, both with the closed form alone and with the
DES refining the leaders, every candidate the search enumerates and its
order, and every row of the 4D sweep.  Compared with ``==``; nothing
here may be re-recorded by a refactor.
"""

import pytest

from repro.core import WEAK_SCALING_MODELS
from repro.experiments import sweep_4d
from repro.tuning import grid_candidates, search_space, tune

SPEC = WEAK_SCALING_MODELS["12B"]

#: (framework, batch_size, refine_top) -> TuningResult.as_row() for the
#: 12B model on 48 GPUs
TUNE_PINS = {
    ('axonn', 16384, 0):
        {'framework': 'axonn', 'mbs': 8, 'g_intra': 1, 'g_inter': 6,
         'g_data': 8, 'batch_time_s': 255.71015022786557, 'candidates': 20,
         'feasible': 16},
    ('deepspeed', 16384, 0):
        {'framework': 'deepspeed', 'mbs': 4, 'g_intra': 2, 'g_inter': 3,
         'g_data': 8, 'batch_time_s': 276.6252555078093, 'candidates': 84,
         'feasible': 69},
    ('megatron', 16384, 0):
        {'framework': 'megatron', 'mbs': 8, 'g_intra': 2, 'g_inter': 12,
         'g_data': 2, 'batch_time_s': 310.6949238930256, 'candidates': 84,
         'feasible': 36},
    ('axonn', 768, 3):
        {'framework': 'axonn', 'mbs': 2, 'g_intra': 1, 'g_inter': 12,
         'g_data': 4, 'batch_time_s': 18.791477610167323, 'candidates': 40,
         'feasible': 28},
    ('deepspeed', 768, 3):
        {'framework': 'deepspeed', 'mbs': 4, 'g_intra': 2, 'g_inter': 8,
         'g_data': 3, 'batch_time_s': 17.083054233438713, 'candidates': 120,
         'feasible': 82},
    ('megatron', 768, 3):
        {'framework': 'megatron', 'mbs': 4, 'g_intra': 2, 'g_inter': 12,
         'g_data': 2, 'batch_time_s': 17.459555490313534, 'candidates': 120,
         'feasible': 36},
}


#: (search, batch_size) -> the Table II search's candidates for 12B on
#: 48 GPUs, in order, as (g_intra, g_inter, g_data, microbatch_size);
#: Megatron-LM and DeepSpeed search the same list
CANDIDATE_PINS = {
    ('axonn', 16384):
        ((1, 3, 16, 1), (1, 3, 16, 2), (1, 3, 16, 4), (1, 3, 16, 8), (1, 6, 8,
         1), (1, 6, 8, 2), (1, 6, 8, 4), (1, 6, 8, 8), (1, 12, 4, 1), (1, 12,
         4, 2), (1, 12, 4, 4), (1, 12, 4, 8), (1, 24, 2, 1), (1, 24, 2, 2),
         (1, 24, 2, 4), (1, 24, 2, 8), (1, 48, 1, 1), (1, 48, 1, 2), (1, 48,
         1, 4), (1, 48, 1, 8)),
    ('baseline', 16384):
        ((1, 3, 16, 1), (1, 3, 16, 2), (1, 3, 16, 4), (1, 3, 16, 8), (1, 6, 8,
         1), (1, 6, 8, 2), (1, 6, 8, 4), (1, 6, 8, 8), (1, 12, 4, 1), (1, 12,
         4, 2), (1, 12, 4, 4), (1, 12, 4, 8), (1, 24, 2, 1), (1, 24, 2, 2),
         (1, 24, 2, 4), (1, 24, 2, 8), (1, 48, 1, 1), (1, 48, 1, 2), (1, 48,
         1, 4), (1, 48, 1, 8), (2, 3, 8, 1), (2, 3, 8, 2), (2, 3, 8, 4), (2,
         3, 8, 8), (2, 6, 4, 1), (2, 6, 4, 2), (2, 6, 4, 4), (2, 6, 4, 8), (2,
         12, 2, 1), (2, 12, 2, 2), (2, 12, 2, 4), (2, 12, 2, 8), (2, 24, 1,
         1), (2, 24, 1, 2), (2, 24, 1, 4), (2, 24, 1, 8), (3, 1, 16, 1), (3,
         1, 16, 2), (3, 1, 16, 4), (3, 1, 16, 8), (3, 2, 8, 1), (3, 2, 8, 2),
         (3, 2, 8, 4), (3, 2, 8, 8), (3, 4, 4, 1), (3, 4, 4, 2), (3, 4, 4, 4),
         (3, 4, 4, 8), (3, 8, 2, 1), (3, 8, 2, 2), (3, 8, 2, 4), (3, 8, 2, 8),
         (3, 16, 1, 1), (3, 16, 1, 2), (3, 16, 1, 4), (3, 16, 1, 8), (6, 1, 8,
         1), (6, 1, 8, 2), (6, 1, 8, 4), (6, 1, 8, 8), (6, 2, 4, 1), (6, 2, 4,
         2), (6, 2, 4, 4), (6, 2, 4, 8), (6, 4, 2, 1), (6, 4, 2, 2), (6, 4, 2,
         4), (6, 4, 2, 8), (6, 8, 1, 1), (6, 8, 1, 2), (6, 8, 1, 4), (6, 8, 1,
         8), (12, 1, 4, 1), (12, 1, 4, 2), (12, 1, 4, 4), (12, 1, 4, 8), (12,
         2, 2, 1), (12, 2, 2, 2), (12, 2, 2, 4), (12, 2, 2, 8), (12, 4, 1, 1),
         (12, 4, 1, 2), (12, 4, 1, 4), (12, 4, 1, 8)),
    ('axonn', 768):
        ((1, 1, 48, 1), (1, 1, 48, 2), (1, 1, 48, 4), (1, 1, 48, 8), (1, 2,
         24, 1), (1, 2, 24, 2), (1, 2, 24, 4), (1, 2, 24, 8), (1, 3, 16, 1),
         (1, 3, 16, 2), (1, 3, 16, 4), (1, 3, 16, 8), (1, 4, 12, 1), (1, 4,
         12, 2), (1, 4, 12, 4), (1, 4, 12, 8), (1, 6, 8, 1), (1, 6, 8, 2), (1,
         6, 8, 4), (1, 6, 8, 8), (1, 8, 6, 1), (1, 8, 6, 2), (1, 8, 6, 4), (1,
         8, 6, 8), (1, 12, 4, 1), (1, 12, 4, 2), (1, 12, 4, 4), (1, 12, 4, 8),
         (1, 16, 3, 1), (1, 16, 3, 2), (1, 16, 3, 4), (1, 16, 3, 8), (1, 24,
         2, 1), (1, 24, 2, 2), (1, 24, 2, 4), (1, 24, 2, 8), (1, 48, 1, 1),
         (1, 48, 1, 2), (1, 48, 1, 4), (1, 48, 1, 8)),
    ('baseline', 768):
        ((1, 1, 48, 1), (1, 1, 48, 2), (1, 1, 48, 4), (1, 1, 48, 8), (1, 2,
         24, 1), (1, 2, 24, 2), (1, 2, 24, 4), (1, 2, 24, 8), (1, 3, 16, 1),
         (1, 3, 16, 2), (1, 3, 16, 4), (1, 3, 16, 8), (1, 4, 12, 1), (1, 4,
         12, 2), (1, 4, 12, 4), (1, 4, 12, 8), (1, 6, 8, 1), (1, 6, 8, 2), (1,
         6, 8, 4), (1, 6, 8, 8), (1, 8, 6, 1), (1, 8, 6, 2), (1, 8, 6, 4), (1,
         8, 6, 8), (1, 12, 4, 1), (1, 12, 4, 2), (1, 12, 4, 4), (1, 12, 4, 8),
         (1, 16, 3, 1), (1, 16, 3, 2), (1, 16, 3, 4), (1, 16, 3, 8), (1, 24,
         2, 1), (1, 24, 2, 2), (1, 24, 2, 4), (1, 24, 2, 8), (1, 48, 1, 1),
         (1, 48, 1, 2), (1, 48, 1, 4), (1, 48, 1, 8), (2, 1, 24, 1), (2, 1,
         24, 2), (2, 1, 24, 4), (2, 1, 24, 8), (2, 2, 12, 1), (2, 2, 12, 2),
         (2, 2, 12, 4), (2, 2, 12, 8), (2, 3, 8, 1), (2, 3, 8, 2), (2, 3, 8,
         4), (2, 3, 8, 8), (2, 4, 6, 1), (2, 4, 6, 2), (2, 4, 6, 4), (2, 4, 6,
         8), (2, 6, 4, 1), (2, 6, 4, 2), (2, 6, 4, 4), (2, 6, 4, 8), (2, 8, 3,
         1), (2, 8, 3, 2), (2, 8, 3, 4), (2, 8, 3, 8), (2, 12, 2, 1), (2, 12,
         2, 2), (2, 12, 2, 4), (2, 12, 2, 8), (2, 24, 1, 1), (2, 24, 1, 2),
         (2, 24, 1, 4), (2, 24, 1, 8), (3, 1, 16, 1), (3, 1, 16, 2), (3, 1,
         16, 4), (3, 1, 16, 8), (3, 2, 8, 1), (3, 2, 8, 2), (3, 2, 8, 4), (3,
         2, 8, 8), (3, 4, 4, 1), (3, 4, 4, 2), (3, 4, 4, 4), (3, 4, 4, 8), (3,
         8, 2, 1), (3, 8, 2, 2), (3, 8, 2, 4), (3, 8, 2, 8), (3, 16, 1, 1),
         (3, 16, 1, 2), (3, 16, 1, 4), (3, 16, 1, 8), (6, 1, 8, 1), (6, 1, 8,
         2), (6, 1, 8, 4), (6, 1, 8, 8), (6, 2, 4, 1), (6, 2, 4, 2), (6, 2, 4,
         4), (6, 2, 4, 8), (6, 4, 2, 1), (6, 4, 2, 2), (6, 4, 2, 4), (6, 4, 2,
         8), (6, 8, 1, 1), (6, 8, 1, 2), (6, 8, 1, 4), (6, 8, 1, 8), (12, 1,
         4, 1), (12, 1, 4, 2), (12, 1, 4, 4), (12, 1, 4, 8), (12, 2, 2, 1),
         (12, 2, 2, 2), (12, 2, 2, 4), (12, 2, 2, 8), (12, 4, 1, 1), (12, 4,
         1, 2), (12, 4, 1, 4), (12, 4, 1, 8)),
}


#: sweep_4d(cluster_sizes=(8, 16)), every row in order; the eight rows
#: with g_data == 1 were re-recorded once, when a one-replica column
#: stopped paying an 18 ms all-reduce launch (allreduce_s 0.018 -> 0.0)
SWEEP_4D_PINS = [
    {'model': '12B', 'gpus': 8, 'g_inter': 1, 'g_data': 8, 'g_intra': 1,
     'mbs': 4, 'memopt': False, 'pipeline_s': 42.75501676770751,
     'allreduce_s': 3.8240005149090908, 'optimizer_s': 0.2990358976,
     'batch_time_s': 46.8780531802166, 'training_days': 620.9221572374846,
     'pct_peak': 54.22636059534604, 'memory_gb': 228.15333366394043,
     'feasible': False, 'batch_size': 512},
    {'model': '12B', 'gpus': 8, 'g_inter': 2, 'g_data': 4, 'g_intra': 1,
     'mbs': 4, 'memopt': False, 'pipeline_s': 44.91201008108758,
     'allreduce_s': 3.343605102545454, 'optimizer_s': 0.1524220672,
     'batch_time_s': 48.40803725083303, 'training_days': 641.18752546884,
     'pct_peak': 52.51248263973952, 'memory_gb': 114.59310829639435,
     'feasible': False, 'batch_size': 512},
    {'model': '12B', 'gpus': 8, 'g_inter': 4, 'g_data': 2, 'g_intra': 1,
     'mbs': 4, 'memopt': False, 'pipeline_s': 47.26085808661254,
     'allreduce_s': 0.176242304, 'optimizer_s': 0.07911515200000001,
     'batch_time_s': 47.516215542612535, 'training_days': 629.3749218862922,
     'pct_peak': 53.49807821876186, 'memory_gb': 59.9752002954483,
     'feasible': False, 'batch_size': 512},
    {'model': '12B', 'gpus': 8, 'g_inter': 8, 'g_data': 1, 'g_intra': 1,
     'mbs': 4, 'memopt': False, 'pipeline_s': 50.97824759451153,
     'allreduce_s': 0.0, 'optimizer_s': 0.0424616944,
     'batch_time_s': 51.020709288911526, 'training_days': 675.7936118564543,
     'pct_peak': 49.82341976791568, 'memory_gb': 32.66624629497528,
     'feasible': False, 'batch_size': 512},
    {'model': '12B', 'gpus': 8, 'g_inter': 1, 'g_data': 4, 'g_intra': 2,
     'mbs': 4, 'memopt': False, 'pipeline_s': 64.37688326448028,
     'allreduce_s': 0.47531420160000004, 'optimizer_s': 0.1524220672,
     'batch_time_s': 65.00461953328029, 'training_days': 861.01716800902,
     'pct_peak': 39.105316422270526, 'memory_gb': 137.30508613586426,
     'feasible': False, 'batch_size': 512},
    {'model': '12B', 'gpus': 8, 'g_inter': 2, 'g_data': 2, 'g_intra': 2,
     'mbs': 4, 'memopt': False, 'pipeline_s': 68.23053489289234,
     'allreduce_s': 0.176242304, 'optimizer_s': 0.07911515200000001,
     'batch_time_s': 68.48589234889234, 'training_days': 907.1282856847489,
     'pct_peak': 37.117516156586184, 'memory_gb': 69.16895091533661,
     'feasible': False, 'batch_size': 512},
    {'model': '12B', 'gpus': 8, 'g_inter': 4, 'g_data': 1, 'g_intra': 2,
     'mbs': 4, 'memopt': False, 'pipeline_s': 74.49559783970236,
     'allreduce_s': 0.0, 'optimizer_s': 0.0424616944,
     'batch_time_s': 74.53805953410236, 'training_days': 987.292124617131,
     'pct_peak': 34.10373481208236, 'memory_gb': 36.39820611476898,
     'feasible': False, 'batch_size': 512},
    {'model': '12B', 'gpus': 8, 'g_inter': 1, 'g_data': 2, 'g_intra': 4,
     'mbs': 4, 'memopt': False, 'pipeline_s': 134.69400471829408,
     'allreduce_s': 0.176242304, 'optimizer_s': 0.07911515200000001,
     'batch_time_s': 134.9493621742941, 'training_days': 1787.468621125408,
     'pct_peak': 18.836889443575693, 'memory_gb': 91.88096237182617,
     'feasible': False, 'batch_size': 512},
    {'model': '12B', 'gpus': 8, 'g_inter': 2, 'g_data': 1, 'g_intra': 4,
     'mbs': 4, 'memopt': False, 'pipeline_s': 141.53532505705869,
     'allreduce_s': 0.0, 'optimizer_s': 0.0424616944,
     'batch_time_s': 141.5777867514587, 'training_days': 1875.2652638681557,
     'pct_peak': 17.954979196141746, 'memory_gb': 46.45687222480774,
     'feasible': False, 'batch_size': 512},
    {'model': '12B', 'gpus': 8, 'g_inter': 1, 'g_data': 1, 'g_intra': 8,
     'mbs': 4, 'memopt': False, 'pipeline_s': 895.7802252517181,
     'allreduce_s': 0.0, 'optimizer_s': 0.0424616944,
     'batch_time_s': 895.8226869461181, 'training_days': 11865.598452702074,
     'pct_peak': 2.837644382979476, 'memory_gb': 69.16890048980713,
     'feasible': False, 'batch_size': 512},
    {'model': '12B', 'gpus': 16, 'g_inter': 1, 'g_data': 16, 'g_intra': 1,
     'mbs': 4, 'memopt': False, 'pipeline_s': 42.75501676770751,
     'allreduce_s': 4.096007694545454, 'optimizer_s': 0.2990358976,
     'batch_time_s': 47.150060359852965, 'training_days': 312.2625109874736,
     'pct_peak': 53.91353046756016, 'memory_gb': 228.15333366394043,
     'feasible': False, 'batch_size': 1024},
    {'model': '12B', 'gpus': 16, 'g_inter': 2, 'g_data': 8, 'g_intra': 1,
     'mbs': 4, 'memopt': False, 'pipeline_s': 44.91201008108758,
     'allreduce_s': 3.8980126196363636, 'optimizer_s': 0.1524220672,
     'batch_time_s': 48.96244476792394, 'training_days': 324.26545863631,
     'pct_peak': 51.9178776265591, 'memory_gb': 114.59310829639435,
     'feasible': False, 'batch_size': 1024},
    {'model': '12B', 'gpus': 16, 'g_inter': 4, 'g_data': 4, 'g_intra': 1,
     'mbs': 4, 'memopt': False, 'pipeline_s': 47.26085808661254,
     'allreduce_s': 3.4703629963636358, 'optimizer_s': 0.07911515200000001,
     'batch_time_s': 50.81033623497617, 'training_days': 336.5035602448793,
     'pct_peak': 50.029706632966274, 'memory_gb': 59.9752002954483,
     'feasible': False, 'batch_size': 1024},
    {'model': '12B', 'gpus': 16, 'g_inter': 8, 'g_data': 2, 'g_intra': 1,
     'mbs': 4, 'memopt': False, 'pipeline_s': 50.97824759451153,
     'allreduce_s': 1.8708193920000002, 'optimizer_s': 0.0424616944,
     'batch_time_s': 52.89152868091153, 'training_days': 350.28675318367965,
     'pct_peak': 48.061122057824875, 'memory_gb': 32.66624629497528,
     'feasible': False, 'batch_size': 1024},
    {'model': '12B', 'gpus': 16, 'g_inter': 16, 'g_data': 1, 'g_intra': 1,
     'mbs': 4, 'memopt': False, 'pipeline_s': 58.09808208383653,
     'allreduce_s': 0.0, 'optimizer_s': 0.0241349656,
     'batch_time_s': 58.12221704943653, 'training_days': 384.9282334210908,
     'pct_peak': 43.735878374978086, 'memory_gb': 19.35600757598877,
     'feasible': False, 'batch_size': 1024},
    {'model': '12B', 'gpus': 16, 'g_inter': 1, 'g_data': 8, 'g_intra': 2,
     'mbs': 4, 'memopt': False, 'pipeline_s': 64.37688326448028,
     'allreduce_s': 1.958006309818182, 'optimizer_s': 0.1524220672,
     'batch_time_s': 66.48731164149848, 'training_days': 440.3280658291345,
     'pct_peak': 38.233253127527746, 'memory_gb': 137.30508613586426,
     'feasible': False, 'batch_size': 1024},
    {'model': '12B', 'gpus': 16, 'g_inter': 2, 'g_data': 4, 'g_intra': 2,
     'mbs': 4, 'memopt': False, 'pipeline_s': 68.23053489289234,
     'allreduce_s': 1.744181498181818, 'optimizer_s': 0.07911515200000001,
     'batch_time_s': 70.05383154307415, 'training_days': 463.94819380888777,
     'pct_peak': 36.286754910689105, 'memory_gb': 69.16895091533661,
     'feasible': False, 'batch_size': 1024},
    {'model': '12B', 'gpus': 16, 'g_inter': 4, 'g_data': 2, 'g_intra': 2,
     'mbs': 4, 'memopt': False, 'pipeline_s': 74.49559783970236,
     'allreduce_s': 0.10293538880000001, 'optimizer_s': 0.0424616944,
     'batch_time_s': 74.64099492290237, 'training_days': 494.327776451259,
     'pct_peak': 34.056703268544645, 'memory_gb': 36.39820611476898,
     'feasible': False, 'batch_size': 1024},
    {'model': '12B', 'gpus': 16, 'g_inter': 8, 'g_data': 1, 'g_intra': 2,
     'mbs': 4, 'memopt': False, 'pipeline_s': 86.59810115531783,
     'allreduce_s': 0.0, 'optimizer_s': 0.0241349656,
     'batch_time_s': 86.62223612091783, 'training_days': 573.6764015152576,
     'pct_peak': 29.346116304475963, 'memory_gb': 20.01283371448517,
     'feasible': False, 'batch_size': 1024},
    {'model': '12B', 'gpus': 16, 'g_inter': 1, 'g_data': 4, 'g_intra': 4,
     'mbs': 4, 'memopt': False, 'pipeline_s': 134.69400471829408,
     'allreduce_s': 0.255393456, 'optimizer_s': 0.07911515200000001,
     'batch_time_s': 135.0285133262941, 'training_days': 894.2585079292066,
     'pct_peak': 18.82584761646209, 'memory_gb': 91.88096237182617,
     'feasible': False, 'batch_size': 1024},
    {'model': '12B', 'gpus': 16, 'g_inter': 2, 'g_data': 2, 'g_intra': 4,
     'mbs': 4, 'memopt': False, 'pipeline_s': 141.53532505705869,
     'allreduce_s': 0.10293538880000001, 'optimizer_s': 0.0424616944,
     'batch_time_s': 141.6807221402587, 'training_days': 938.3143460767712,
     'pct_peak': 17.94193435322641, 'memory_gb': 46.45687222480774,
     'feasible': False, 'batch_size': 1024},
    {'model': '12B', 'gpus': 16, 'g_inter': 4, 'g_data': 1, 'g_intra': 4,
     'mbs': 4, 'memopt': False, 'pipeline_s': 153.70729346178496,
     'allreduce_s': 0.0, 'optimizer_s': 0.0241349656,
     'batch_time_s': 153.73142842738497, 'training_days': 1018.1230202475189,
     'pct_peak': 16.535501177359837, 'memory_gb': 24.60970902442932,
     'feasible': False, 'batch_size': 1024},
    {'model': '12B', 'gpus': 16, 'g_inter': 1, 'g_data': 2, 'g_intra': 8,
     'mbs': 4, 'memopt': False, 'pipeline_s': 895.7802252517181,
     'allreduce_s': 0.10293538880000001, 'optimizer_s': 0.0424616944,
     'batch_time_s': 895.9256223349181, 'training_days': 5933.4809404937305,
     'pct_peak': 2.837318358116969, 'memory_gb': 69.16890048980713,
     'feasible': False, 'batch_size': 1024},
    {'model': '12B', 'gpus': 16, 'g_inter': 2, 'g_data': 1, 'g_intra': 8,
     'mbs': 4, 'memopt': False, 'pipeline_s': 911.2530434763896,
     'allreduce_s': 0.0, 'optimizer_s': 0.0241349656,
     'batch_time_s': 911.2771784419896, 'training_days': 6035.150279217227,
     'pct_peak': 2.7895203302515874, 'memory_gb': 35.100832879543304,
     'feasible': False, 'batch_size': 1024},
]


@pytest.mark.parametrize("key", list(TUNE_PINS), ids=str)
def test_tuned_row_is_pinned(key):
    framework, batch_size, refine_top = key
    result = tune(SPEC, 48, batch_size, framework, refine_top=refine_top)
    assert result.as_row() == TUNE_PINS[key]


@pytest.mark.parametrize("key", list(CANDIDATE_PINS), ids=str)
def test_candidates_are_pinned(key):
    """The one enumerator lists what each search enumerated, in order."""
    search, batch_size = key
    frameworks = [search] if search == "axonn" else ["deepspeed",
                                                     "megatron"]
    for framework in frameworks:
        g_intras, fields = search_space(framework)
        cands = grid_candidates(SPEC, 48, batch_size, g_intras, **fields)
        assert tuple((c.g_intra, c.g_inter, c.g_data, c.microbatch_size)
                     for c in cands) == CANDIDATE_PINS[key]


def test_sweep_4d_rows_are_pinned():
    assert sweep_4d(cluster_sizes=(8, 16)) == SWEEP_4D_PINS
