"""Vectorized per-invocation noise factors, bit-identical to keyed Generators.

``GpuSimulator._noise_factor`` draws one log-normal factor per invocation
from ``np.random.default_rng((seed * 0x9E3779B9 + index) & 0xFFFFFFFF)``.
Constructing a ``Generator`` (SeedSequence entropy pool + PCG64 seeding)
per invocation costs far more than the single draw it feeds, and shows up
once the wave simulation itself is batched.  This module replays the
exact numpy pipeline for *many* keys at once with array operations:

1. ``SeedSequence(key).generate_state(4, uint64)`` — the entropy-pool
   hash (uint32 multiply/xor mixing) vectorized over keys.
2. PCG64 seeding and output — 128-bit LCG state as (hi, lo) uint64 pairs
   with 32-bit limb arithmetic for the carry.
3. The first ``standard_normal()`` draw — the ziggurat accept path
   (~98.8% of keys) vectorized with the exact constant tables numpy
   ships; the rare rejection/tail lanes fall back to a direct scalar
   port that uses ``math.exp``/``math.log1p`` (the same libm calls the C
   implementation makes).

Bit-identity is enforced, not assumed: the first batched call verifies a
set of sentinel keys — chosen to exercise the accept, wedge-rejection,
multi-round and tail paths — against ``np.random.default_rng`` itself.
If the installed numpy produces different bits (different ziggurat
tables or seeding pipeline), the module permanently falls back to the
per-key scalar path for the rest of the process, so results never
depend on this optimization being right for the running numpy.

The ziggurat tables below are the 256-entry Marsaglia–Tsang constants
from numpy's ``distributions.c``, stored as exact uint64 bit patterns
(regenerating them from the textbook recurrence differs in the last
bits, which is exactly what bit-identity cannot tolerate).
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

import numpy as np

__all__ = ["first_standard_normal", "noise_factors", "uses_fallback"]

_U32 = np.uint32
_U64 = np.uint64
_MASK32 = _U64(0xFFFFFFFF)
_MASK52 = _U64(0x000FFFFFFFFFFFFF)

# SeedSequence hashing constants (numpy/random/bit_generator.pyx).
_XSHIFT = _U32(16)
_INIT_A = _U32(0x43B0D7E5)
_MULT_A = _U32(0x931E8875)
_INIT_B = _U32(0x8B51F9DD)
_MULT_B = _U32(0x58F38DED)
_MIX_MULT_L = _U32(0xCA01F9DD)
_MIX_MULT_R = _U32(0x4973F715)

# PCG64 128-bit LCG multiplier (pcg64.h), split into uint64 halves.
_PCG_MUL_HI = _U64(2549297995355413924)
_PCG_MUL_LO = _U64(4865540595714422341)

# Ziggurat geometry (distributions.c).
_ZIG_R = 3.6541528853610088
_ZIG_INV_R = 0.27366123732975828
_TO_DBL = 1.0 / 9007199254740992.0  # 2**-53

_KI_HEX = (
    "000ef33d8025ef6a0000000000000000000c08be98fbc6a8000da354fabd8142"
    "000e51f67ec1eeea000eb255e9d3f77e000eef4b817ecab9000f19470afa44aa"
    "000f37ed61ffcb18000f4f469561255c000f61a5e41ba396000f707a755396a4"
    "000f7cb2ec28449a000f86f10c6357d3000f8fa6578325de000f9724c74dd0da"
    "000f9da907dbf509000fa360f581fa74000fa86fde5b4bf8000facf160d354dc"
    "000fb0fb6718b90f000fb49f8d5374c6000fb7ec2366fe77000fbaece9a1e50e"
    "000fbdab9d040bed000fc03060ff6c57000fc2821037a248000fc4a67ae25bd1"
    "000fc6a2977aee31000fc87aa92896a4000fca325e4bde85000fcbcce902231a"
    "000fcd4d12f839c4000fceb54d8fec99000fd007bf1dc930000fd1464dd6c4e6"
    "000fd272a8e2f450000fd38e4ff0c91e000fd49a9990b478000fd598b8920f53"
    "000fd689c08e99ec000fd76ea9c8e832000fd848547b08e8000fd9178bad2c8c"
    "000fd9dd07a7add2000fda9970105e8c000fdb4d5dc02e20000fdbf95c5bfcd0"
    "000fdc9debb99a7d000fdd3b8118729d000fddd288342f90000fde6364369f64"
    "000fdeee708d514e000fdf7401a6b42e000fdff46599ed40000fe06fe4bc24f2"
    "000fe0e6c225a258000fe1593c28b84c000fe1c78cbc3f99000fe231e9db1caa"
    "000fe29885da1b91000fe2fb8fb54186000fe35b33558d4a000fe3b799d0002a"
    "000fe410e99ead7f000fe46746d47734000fe4bad34c095c000fe50baed29524"
    "000fe559f74ebc78000fe5a5c8e41212000fe5ef3e138689000fe6366fd91078"
    "000fe67b75c6d578000fe6be661e11aa000fe6ff55e5f4f2000fe73e5900a702"
    "000fe77b823e9e39000fe7b6e37070a2000fe7f08d774243000fe8289053f08c"
    "000fe85efb35173a000fe893dc840864000fe8c741f0cebc000fe8f9387d4ef6"
    "000fe929cc879b1d000fe95909d388ea000fe986fb939aa2000fe9b3ac714866"
    "000fe9df2694b6d5000fea0973abe67c000fea329cf166a4000fea5aab32952c"
    "000fea81a6d5741a000feaa797de1cf0000feacc85f3d920000feaf07865e63c"
    "000feb13762fec13000feb3585fe2a4a000feb56ae3162b4000feb76f4e284fa"
    "000feb965fe62014000febb4f4cf9d7c000febd2b8f449d0000febefb16e2e3e"
    "000fec0be31ebde8000fec2752b15a15000fec42049dafd3000fec5bfd29f196"
    "000fec75406ceef4000fec8dd2500cb4000feca5b6911f12000fecbcf0c427fe"
    "000fecd38454fb15000fece97488c8b3000fecfec47f91b7000fed1377358528"
    "000fed278f844903000fed3b10242f4c000fed4dfbad586e000fed605498c3dd"
    "000fed721d414fe8000fed8357e4a982000fed9406a42cc8000feda42b85b704"
    "000fedb3c8746ab4000fedc2df416652000fedd171a46e52000feddf813c8ad3"
    "000feded0f909980000fedfa1e0fd414000fee06ae124bc4000fee12c0d95a06"
    "000fee1e579006e0000fee29734b6524000fee34150ae4bc000fee3e3db89b3c"
    "000fee47ee2982f4000fee51271db086000fee59e9407f41000fee623528b42e"
    "000fee6a0b5897f1000fee716c3e077a000fee7858327b82000fee7ecf7b06ba"
    "000fee84d2484ab2000fee8a60b66343000fee8f7accc851000fee94207e25da"
    "000fee9851a829ea000fee9c0e13485c000fee9f557273f4000feea22762ccae"
    "000feea4836b42ac000feea668fc2d71000feea7d76ed6fa000feea8ce04fa0a"
    "000feea94be8333b000feea950296410000feea8d9c0075e000feea7e7897654"
    "000feea678481d24000feea48aa29e83000feea21d22e4da000fee9f2e352024"
    "000fee9bbc26af2e000fee97c524f2e4000fee93473c0a3a000fee8e40557516"
    "000fee88ae369c7a000fee828e7f3dfd000fee7bdea7b888000fee749bff37ff"
    "000fee6cc3a9bd5e000fee64529e007e000fee5b45a32888000fee51994e57b6"
    "000fee474a0006cf000fee3c53e12c50000fee30b2e02ad8000fee2462ad8205"
    "000fee175eb83c5a000fee09a22a1447000fedfb27e349cc000fedebea76216c"
    "000feddbe422047e000fedcb0ece39d3000fedb964042cf4000feda6dce938c9"
    "000fed937237e98d000fed7f1c38a836000fed69d2b9c02b000fed538d06ae00"
    "000fed3c41dea422000fed23e76a2fd8000fed0a732fe644000fecefda07fe34"
    "000fecd4100eb7b8000fecb708956eb4000fec98b61230c1000fec790a0da978"
    "000fec57f50f31fe000fec356686c962000fec114cb4b335000febeb948e6fd0"
    "000febc429a0b692000feb9af5ee0cdc000feb6fe1c98542000feb42d3ad1f9e"
    "000feb13b00b2d4b000feae2591a02e9000feaaeae992257000fea788d8ee326"
    "000fea3fcffd73e5000fea044c8dd9f6000fe9c5d62f563b000fe9843ba947a4"
    "000fe93f471d4728000fe8f6bd76c5d6000fe8aa5dc4e8e6000fe859e07ab1ea"
    "000fe804f690a940000fe7ab488233c0000fe74c751f6aa5000fe6e8102aa202"
    "000fe67da0b6abd8000fe60c9f38307e000fe5947338f742000fe51470977280"
    "000fe48bd436f458000fe3f9bffd1e37000fe35d35eeb19c000fe2b5122fe4fe"
    "000fe20003995557000fe13c82788314000fe068c4ee67b0000fdf82b02b71aa"
    "000fde87c57efeaa000fdd7509c63bfd000fdc46e529bf13000fdaf8f82e0282"
    "000fd985e1b2ba75000fd7e6ef48cf04000fd613adbd650b000fd40149e2f012"
    "000fd1a1a7b4c7ac000fcee204761f9e000fcba8d85e11b2000fc7d26ecd2d22"
    "000fc32b2f1e22ed000fbd6581c0b83a000fb606c4005434000fac40582a2874"
    "000f9e971e014598000f89fa48a41dfc000f66c5f7f0302c000f1a5a4b331c4a"
)

_WI_HEX = (
    "3ccf493b7815d9793c8b8d0be3fdf6c63c9250af3c2c5bb43c957cb938443b61"
    "3c9801fce82fa70c3c9a230c2e4cd0bc3c9c004d2f3861f73c9dac2f5a747274"
    "3c9f32482d4cd5c33ca04d32278ebbad3ca0f5053b025d433ca192a697413677"
    "3ca227a28f7a1af53ca2b52e3863d8803ca33c3fc05791f53ca3bd9ec1a2b12f"
    "3ca439ef8dff9b553ca4b1bb363dfea73ca52575621ad3743ca59580a707ce96"
    "3ca60231cfd97eea3ca66bd261a37c3d3ca6d2a2920005703ca736dad346f8a6"
    "3ca798ad10b32a773ca7f845ad46f5433ca855cc53430a773ca8b1649e7b769a"
    "3ca90b2ea94ecf983ca96347822c1eea3ca9b9c98e38c5463caa0eccdca4a72c"
    "3caa62676d77cd593caab4ad6e1016303cab05b16d136c9c3cab558487427a29"
    "3caba4368e529f3a3cabf1d62abf82323cac3e70f9594ef33cac8a13a5323b61"
    "3cacd4c9fe72268b3cad1e9f0e80b7483cad679d29e41f103cadafce0023b8c3"
    "3cadf73aa9f176533cae3debb5d2edfe3cae83e9337a6f003caec93abdf982ce"
    "3caf0de784f062263caf51f654d8f6883caf956d9e87d7ae3cafd8537dfa2eac"
    "3cb00d56e04234ec3cb02e40f5398f9a3cb04eea9e16a5fc3cb06f565b72a010"
    "3cb08f869071f40b3cb0af7d84bc61133cb0cf3d664bcc7f3cb0eec84b16086b"
    "3cb10e20329515ee3cb12d4707310fbe3cb14c3e9f8e91413cb16b08bfc4201e"
    "3cb189a71a78da343cb1a81b51ee6d883cb1c666f8f82acb3cb1e48b93e0d42e"
    "3cb2028a9940a09f3cb2206572c4c6e93cb23e1d7de9c31f3cb25bb40ca96bfb"
    "3cb2792a661dd37f3cb29681c719d71b3cb2b3bb62b82eda3cb2d0d862e1b853"
    "3cb2edd9e8cba98e3cb30ac10d6e48d73cb3278ee1f4b9303cb3444470265ea1"
    "3cb360e2baca52d53cb37d6abe05586a3cb399dd6fb2b2643cb3b63bbfb83d03"
    "3cb3d28698561de03cb3eebede725a833cb40ae571e09e743cb426fb2da6745d"
    "3cb44300e83c30a43cb45ef773cac75d3cb47adf9e66c3363cb496ba32488f2f"
    "3cb4b287f602415d3cb4ce49acb311dc3cb4ea001638a6053cb505abef5e5562"
    "3cb5214df20a8b5a3cb53ce6d56a664f3cb558774e1bb2c83cb574000e555f78"
    "3cb58f81c60e85143cb5aafd23241b593cb5c672d17d733d3cb5e1e37b2f8cd3"
    "3cb5fd4fc89f5e383cb618b860a31fc33cb6341de8a2b0a23cb64f8104b7260b"
    "3cb66ae257c996723cb6864283b131373cb6a1a22950b2b13cb6bd01e8b343bb"
    "3cb6d8626128d3523cb6f3c43161f8543cb70f27f78b68eb3cb72a8e516914c6"
    "3cb745f7dc70eedc3cb7616535e5731f3cb77cd6faeff4493cb7984dc8babd93"
    "3cb7b3ca3c8b14093cb7cf4cf3db22fb3cb7ead68c73dee73cb80667a486ea1f"
    "3cb82200dac886763cb83da2ce899f153cb8594e1fd1f5bd3cb875036f7a7ec5"
    "3cb890c35f47f72d3cb8ac8e9205c0433cb8c865aba10c9c3cb8e44951446a27"
    "3cb9003a2973b58f3cb91c38dc2883473cb9384612ef0afc3cb954627903a28a"
    "3cb9708ebb70d5ee3cb98ccb892e2a313cb9a919933f99bf3cb9c5798cd5d92c"
    "3cb9e1ec2b6f74113cb9fe7226fad24a3cba1b0c39f936923cba37bb21a2c85b"
    "3cba547f9e0bbb883cba715a724aa9a43cba8e4c64a0313d3cbaab563e9ff108"
    "3cbac878cd5af5ce3cbae5b4e18bb3363cbb030b4fc3a11a3cbb207cf09a985b"
    "3cbb3e0aa0e00c003cbb5bb541ce3d033cbb797db93f89273cbb9764f1e5f73c"
    "3cbbb56bdb85256e3cbbd3936b2ec0a23cbbf1dc9b81ae833cbc10486cec16a0"
    "3cbc2ed7e5f07a2d3cbc4d8c136e0d1c3cbc6c6608ec87053cbc8b66e0eba617"
    "3cbcaa8fbd36a2ab3cbcc9e1c73bd6903cbce95e3068e0373cbd0906328b8f6e"
    "3cbd28db1037ef203cbd48de1533c6473cbd691096e7f1233cbd8973f4d7fba5"
    "3cbdaa0999206e703cbdcad2f8fc490e3cbdebd195522e373cbe0d06fb49d21c"
    "3cbe2e74c4ea46f63cbe501c99c1d1883cbe72002f97fe253cbe94214b2abf0a"
    "3cbeb681c0f76f083cbed9237610a73a3cbefc086101eca93cbf1f328ac25321"
    "3cbf42a40fb74d6d3cbf665f20c901683cbf8a66048997823cbfaebb187122bf"
    "3cbfd360d22fe7853cbff859c118f60b3cc00ed447d3a0753cc021a8028fc947"
    "3cc034a983a902ab3cc047da4e3ef5c73cc05b3bf6adb37e3cc06ed023a72668"
    "3cc082988f632e173cc0969708e8a2543cc0aacd7571c0c43cc0bf3dd1eed448"
    "3cc0d3ea34aa3d303cc0e8d4cf1165933cc0fdffefa69fb63cc1136e04207041"
    "3cc129219bbb5d353cc13f1d69c4096d3cc1556448602e3b3cc16bf93b9deef3"
    "3cc182df74d212613cc19a1a564eebac3cc1b1ad777f2f8e3cc1c99ca971a694"
    "3cc1e1ebfbe4ae393cc1fa9fc2e2d9013cc213bc9d04cc813cc22d477a6fd3ee"
    "3cc24745a4ac9c243cc261bcc77658e03cc27cb2faa8592e3cc2982ecd770e78"
    "3cc2b437532a0a523cc2d0d43196db973cc2ee0db1a978f53cc30becd256aeee"
    "3cc32a7b5e68a4a33cc349c405ae12a33cc369d27a33a8403cc38ab39256410a"
    "3cc3ac7570ae88fa3cc3cf27b31704a63cc3f2dbaa60f4753cc417a49cb9e5da"
    "3cc43d9815545e943cc464ce44a73a153cc48d62759c43bc3cc4b7739d6b5a27"
    "3cc4e3250dcd89023cc5109f53e9ac413cc54011523a7e423cc571b1a94ae41b"
    "3cc5a5c08b718dd93cc5dc8a243ad0fe3cc61669cf861e4c3cc653ce7b006aea"
    "3cc69540be9fe5c33cc6db6b8d09e2323cc72728f05f7a343cc7799556090673"
    "3cc7d42df4d6ce8c3cc839030529f2343cc8ab0fbfaa7c143cc92ee0946f4496"
    "3cc9cbee014057ab3cca8fdc7894775a3ccb981f3878fdb13ccd3bb48209ad33"
)

_FI_HEX = (
    "3ff00000000000003fef446ac979f0873feeb7545b6ca9153fee3f11e027f077"
    "3fedd36fa704de953fed70920657bcf23fed144978a119dc3fecbd33a8a72deb"
    "3fec6a5ecea9787f3fec1b1cd9eebaea3febceeb4ee1dc823feb85653a8ff552"
    "3feb3e3a8234dd103feaf92a3f6ce8a23feab5fef17a25043fea748bd550c9e1"
    "3fea34aafdf5af0f3fe9f63bee651fd83fe9b9228d2406813fe97d4657617ac1"
    "3fe94291c21b7a473fe908f1bd31714f3fe8d0554fe60aa83fe898ad48badf02"
    "3fe861ebfc37bcac3fe82c050f56cf6e3fe7f6ed4b20e2cb3fe7c29a779c6858"
    "3fe78f033ca0b0d53fe75c1f0770d8563fe729e5f43f6d123fe6f850baea7aee"
    "3fe6c7589e635a893fe696f75e513b2a3fe667272a92e3233fe637e298550c18"
    "3fe60924988026653fe5dae86f4aff6a3fe5ad29acc85c893fe57fe4264c8d8f"
    "3fe55313f08d9e463fe526b55a656cd53fe4fac4e820b6673fe4cf3f4f494ec0"
    "3fe4a42172dc52783fe479685fdf50123fe44f114a4936793fe425198a355fe3"
    "3fe3fb7e99585b823fe3d23e10af31a33fe3a955a662cd0e3fe380c32bda00d5"
    "3fe358848bf550e93fe33097c9703a353fe308fafd6438ef3fe2e1ac55ea3bee"
    "3fe2baaa14d7954a3fe293f28e93cd153fe26d84290504ed3fe2475d5a90db84"
    "3fe2217ca92ff7f23fe1fbe0a99296203fe1d687fe5499693fe1b171573fd111"
    "3fe18c9b709b3c503fe16805128639da3fe143ad105ea99c3fe11f9248311f38"
    "3fe0fbb3a23259133fe0d810104142a03fe0b4a68d70d9ae3fe091761d995d81"
    "3fe06e7dccf03c363fe04bbcafa63f2e3fe02931e18b822a3fe006dc85b8cac4"
    "3fdfc9778c7bbda13fdf859da7a900ca3fdf4229cb2f7af33fdeff1a717e8f95"
    "3fdebc6e20bd1f543fde7a236a4ec3c53fde3838ea5f9b853fddf6ad47763a09"
    "3fddb57f320b56b13fdd74ad6426de333fdd3436a10210803fdcf419b4ae5b6d"
    "3fdcb45573c0a8483fdc74e8bb00d7c73fdc35d26f1d2cb83fdbf7117c616a17"
    "3fdbb8a4d6716d913fdb7a8b7807131b3fdb3cc462b331ca3fdaff4e9ea18552"
    "3fdac2293a5f5a9e3fda85534aa4d8803fda48cbea20c04d3fda0c923946843e"
    "3fd9d0a55e1e93df3fd995048418c0c63fd959aedbe09f933fd91ea39b33cb17"
    "3fd8e3e1fcb9f1153fd8a9693fde91883fd86f38a8ac5ab63fd8354f7faa0dd9"
    "3fd7fbad11b8d9113fd7c250aff414b03fd78939af9252eb3fd7506769c7b1ed"
    "3fd717d93ba9614c3fd6df8e86124caa3fd6a786ad88de213fd66fc11a25cbe2"
    "3fd6383d377be5153fd600fa7480d2c83fd5c9f84376c2443fd5933619d6eebe"
    "3fd55cb3703d01003fd5266fc2533bed3fd4f06a8ebf6d923fd4baa357109ca2"
    "3fd485199fad6ad43fd44fccefc324fe3fd41abcd1357a193fd3e5e8d08ed2db"
    "3fd3b1507cf143ae3fd37cf3680813793fd348d125f9d19e3fd314e94d5af62f"
    "3fd2e13b772107663fd2adc73e963fdd3fd27a8c414db11e3fd2478a1f17de89"
    "3fd214c079f7cc9e3fd1e22ef61881163fd1afd539c2f0503fd17db2ed5454e8"
    "3fd14bc7bb34ee673fd11a134fcf24233fd0e895598709c43fd0b74d88b242da"
    "3fd0863b8f9043363fd0555f2242e9d93fd024b7f6c7747e3fcfe88b89df93c5"
    "3fcf88108cb832353fcf27fe6ce998d23fcec854a4c99c443fce6912b2283cdd"
    "3fce0a38164571843fcdabc455c7900a3fcd4db6f8b2514f3fccf00f8a5e6fcc"
    "3fcc92cd9971df533fcc35f0b7d89d473fcbd9787abe18a13fcb7d647a8731aa"
    "3fcb21b452ccd13a3fcac667a25718073fca6b7e0b19267e3fca10f7322d7e3d"
    "3fc9b6d2bfd2fe5a3fc95d105f6a7c273fc903afbf74fa693fc8aab09192815b"
    "3fc852128a819a383fc7f9d5621f71753fc7a1f8d368a3233fc74a7c9c7ab5a6"
    "3fc6f3607e9647163fc69ca43e21f25c3fc64647a2adf19c3fc5f04a76f883f9"
    "3fc59aac88f31d6c3fc5456da9c868353fc4f08dade31fc13fc49c0c6cf5ce2d"
    "3fc447e9c20375d53fc3f4258b6931ae3fc3a0bfaae8d7ee3fc34db805b4ab88"
    "3fc2fb0e847c2a653fc2a8c3137a071a3fc256d5a2835eb73fc2054625183c34"
    "3fc1b41492757d423fc16340e5a82d633fc112cb1da26eb93fc0c2b33d5209ba"
    "3fc072f94bb8bf853fc0239d54067d2a3fbfa93ecb6b222c3fbf0bff29520e1c"
    "3fbe6f7bf29aa54b3fbdd3b56176e88f3fbd38abb9bd91e53fbc9e5f493b740a"
    "3fbc04d0680b10153fbb6bff78f2e2333fbad3ece9caf6333fba3c9933ea6286"
    "3fb9a604dc9d5b193fb9103075a4a0ab3fb87b1c9dbf28523fb7e6ca013eefd6"
    "3fb753395aaa11763fb6c06b73694a4c3fb62e6124854d183fb59d1b577466a4"
    "3fb50c9b06fa2bae3fb47ce1401b22133fb3edef23269a863fb35fc5e4d93e70"
    "3fb2d266cf9b31113fb245d344dd0d913fb1ba0cbe97897d3fb12f14d0f2179d"
    "3fb0a4ed2c1596253fb01b979e30e4973faf262c2b6c6e353fae16d547b25181"
    "3fad092efeadf1623fabfd3e0f282a2c3faaf30790385f703fa9ea90f9295563"
    "3fa8e3e02a68b5ab3fa7defb77af271e3fa6dbe9b398d0643fa5dab23cf2add4"
    "3fa4db5d0e11275d3fa3ddf2ce98eecb3fa2e27ce83df4973fa1e9059f1f6abc"
    "3fa0f1982e9680113f9ff881d718a5c43f9e121adb828c753f9c301983cd091a"
    "3f9a529f4e22ebf83f9879d1b600c10a3f96a5daf40bbf823f94d6eaf2fbb064"
    "3f930d388dab5e133f914903346030123f8f152a4f72dd493f8ba48d274f8fac"
    "3f8841040d8da4783f84eb96421acfe03f81a59229952f923f7ce160f8ec6837"
    "3f769ea8d90cb85d3f708a1f03b0b1fd3f655f9f43c1b0673f54a605b6b9f70f"
)


def _decode_u64(hex_blob: str) -> np.ndarray:
    return np.array([int(hex_blob[i : i + 16], 16) for i in range(0, len(hex_blob), 16)],
                    dtype=np.uint64)


_KI = _decode_u64("".join(_KI_HEX))
_WI = _decode_u64("".join(_WI_HEX)).view(np.float64)
_FI = _decode_u64("".join(_FI_HEX)).view(np.float64)


# --------------------------------------------------------------------------
# SeedSequence: entropy-pool mixing, vectorized over keys
# --------------------------------------------------------------------------
def _hashmix(value: np.ndarray, hash_const: np.ndarray) -> np.ndarray:
    """In-place uint32 hash step; mutates ``hash_const`` like the cython."""
    value = value ^ hash_const
    hash_const *= _MULT_A
    value = value * hash_const
    value ^= value >> _XSHIFT
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    result ^= result >> _XSHIFT
    return result


def _seedseq_state(keys: np.ndarray) -> np.ndarray:
    """``SeedSequence(k).generate_state(4, uint64)`` for every key.

    ``keys`` must fit in 32 bits (one entropy word), which the noise-key
    construction guarantees by masking.  Returns shape ``(4, n)`` uint64.
    """
    n = keys.shape[0]
    entropy = keys.astype(np.uint32)
    pool = np.empty((4, n), dtype=np.uint32)
    hash_const = np.full(n, _INIT_A, dtype=np.uint32)
    pool[0] = _hashmix(entropy, hash_const)
    zero = np.zeros(n, dtype=np.uint32)
    for i in range(1, 4):
        pool[i] = _hashmix(zero, hash_const)
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], _hashmix(pool[i_src], hash_const))

    hash_const = np.full(n, _INIT_B, dtype=np.uint32)
    words32 = np.empty((8, n), dtype=np.uint32)
    for i_dst in range(8):
        data = pool[i_dst % 4] ^ hash_const
        hash_const *= _MULT_B
        data = data * hash_const
        data ^= data >> _XSHIFT
        words32[i_dst] = data
    return words32[0::2].astype(np.uint64) | (
        words32[1::2].astype(np.uint64) << _U64(32)
    )


# --------------------------------------------------------------------------
# PCG64: 128-bit LCG as (hi, lo) uint64 lanes
# --------------------------------------------------------------------------
def _mul128(ah, al, bh, bl):
    """(ah, al) * (bh, bl) mod 2**128; 32-bit limbs give the exact carry."""
    a0 = al & _MASK32
    a1 = al >> _U64(32)
    b0 = bl & _MASK32
    b1 = bl >> _U64(32)
    p00 = a0 * b0
    p01 = a0 * b1
    p10 = a1 * b0
    mid_lo = (p01 & _MASK32) + (p10 & _MASK32) + (p00 >> _U64(32))
    lo = (p00 & _MASK32) | (mid_lo << _U64(32))
    carry = a1 * b1 + (p01 >> _U64(32)) + (p10 >> _U64(32)) + (mid_lo >> _U64(32))
    hi = al * bh + ah * bl + carry
    return hi, lo


def _add128(ah, al, bh, bl):
    lo = al + bl
    hi = ah + bh + (lo < al).astype(np.uint64)
    return hi, lo


class _VecPCG64:
    """Per-lane PCG64 state seeded exactly like ``PCG64(SeedSequence(k))``."""

    __slots__ = ("sh", "sl", "ih", "il")

    def __init__(self, seed_words: np.ndarray):
        initstate_hi, initstate_lo = seed_words[0], seed_words[1]
        initseq_hi, initseq_lo = seed_words[2], seed_words[3]
        # pcg64_srandom: state = 0; inc = (initseq << 1) | 1; step();
        # state += initstate; step().
        self.ih = (initseq_hi << _U64(1)) | (initseq_lo >> _U64(63))
        self.il = (initseq_lo << _U64(1)) | _U64(1)
        self.sh = np.zeros_like(self.ih)
        self.sl = np.zeros_like(self.il)
        self._advance()
        self.sh, self.sl = _add128(self.sh, self.sl, initstate_hi, initstate_lo)
        self._advance()

    def _advance(self) -> None:
        hi, lo = _mul128(self.sh, self.sl, _PCG_MUL_HI, _PCG_MUL_LO)
        self.sh, self.sl = _add128(hi, lo, self.ih, self.il)

    def next_uint64(self) -> np.ndarray:
        """XSL-RR output after advancing every lane."""
        self._advance()
        x = self.sh ^ self.sl
        rot = self.sh >> _U64(58)
        return (x >> rot) | (x << ((-rot) & _U64(63)))


# --------------------------------------------------------------------------
# Ziggurat standard normal: vectorized accept path + exact scalar tail
# --------------------------------------------------------------------------
def _scalar_norm_finish(sh: int, sl: int, ih: int, il: int, first_r: int):
    """Finish one lane's draw after its first uint64 was rejected.

    A direct port of ``random_standard_normal`` (distributions.c) in
    python ints and ``math`` libm calls; returns (value, sh, sl) so the
    lane's generator state stays consistent with numpy's.
    """
    mul = (int(_PCG_MUL_HI) << 64) | int(_PCG_MUL_LO)
    inc = (ih << 64) | il
    state = (sh << 64) | sl

    def next_uint64() -> int:
        nonlocal state
        state = (state * mul + inc) & ((1 << 128) - 1)
        hi = state >> 64
        x = hi ^ (state & 0xFFFFFFFFFFFFFFFF)
        rot = hi >> 58
        return ((x >> rot) | (x << ((-rot) & 63))) & 0xFFFFFFFFFFFFFFFF

    def next_double() -> float:
        return (next_uint64() >> 11) * _TO_DBL

    r = first_r
    while True:
        idx = r & 0xFF
        r >>= 8
        sign = r & 0x1
        rabs = (r >> 1) & 0x000FFFFFFFFFFFFF
        x = rabs * float(_WI[idx])
        if sign:
            x = -x
        if rabs < int(_KI[idx]):
            break
        if idx == 0:
            # Base-strip tail: exponential rejection around x = r.
            while True:
                xx = -_ZIG_INV_R * math.log1p(-next_double())
                yy = -math.log1p(-next_double())
                if yy + yy > xx * xx:
                    x = -(_ZIG_R + xx) if ((rabs >> 8) & 0x1) else _ZIG_R + xx
                    break
            break
        if ((float(_FI[idx - 1]) - float(_FI[idx])) * next_double()
                + float(_FI[idx])) < math.exp(-0.5 * x * x):
            break
        r = next_uint64()
    return x, state >> 64, state & 0xFFFFFFFFFFFFFFFF


def first_standard_normal(keys: np.ndarray) -> np.ndarray:
    """First ``standard_normal()`` draw of ``default_rng(key)`` per key."""
    keys = np.ascontiguousarray(keys, dtype=np.uint64)
    rng = _VecPCG64(_seedseq_state(keys))
    r = rng.next_uint64()
    idx = (r & _U64(0xFF)).astype(np.intp)
    r8 = r >> _U64(8)
    rabs = (r8 >> _U64(1)) & _MASK52
    out = rabs.astype(np.float64) * _WI[idx]
    np.negative(out, where=(r8 & _U64(1)).astype(bool), out=out)
    rejected = np.nonzero(rabs >= _KI[idx])[0]
    for lane in rejected:
        out[lane], sh, sl = _scalar_norm_finish(
            int(rng.sh[lane]), int(rng.sl[lane]),
            int(rng.ih[lane]), int(rng.il[lane]), int(r[lane]),
        )
        rng.sh[lane] = _U64(sh)
        rng.sl[lane] = _U64(sl)
    return out


# --------------------------------------------------------------------------
# Self-check and the public noise-factor entry point
# --------------------------------------------------------------------------
# Keys covering every ziggurat code path (verified against numpy 2.x):
# plain accepts, wedge comparisons (15, 61), multi-round rejections
# (257, 367), and base-strip tail draws (755, 1950, 2429, 4769).
_SENTINEL_KEYS = (
    0, 1, 2, 3, 15, 61, 163, 235, 257, 367,
    755, 1950, 2429, 4769, 123456789, 0xFFFFFFFF,
)
_fallback: Optional[bool] = None


def uses_fallback() -> bool:
    """True when this numpy's bits differ and the scalar path is in use."""
    return bool(_self_check_failed())


def _self_check_failed() -> bool:
    """One-time probe: batched sentinel draws vs real ``default_rng``."""
    # Result-neutral in a pool worker: the memo only picks how the draws
    # are computed; noise_factors returns the scalar path's bits either way.
    global _fallback
    if _fallback is None:
        keys = np.array(_SENTINEL_KEYS, dtype=np.uint64)
        try:
            batched = first_standard_normal(keys)
            reference = np.array(
                [np.random.default_rng(int(k)).standard_normal() for k in keys]
            )
            _fallback = not np.array_equal(batched, reference)  # repro-lint: disable=pool-safety
        except Exception:  # pragma: no cover - ultra-defensive
            _fallback = True  # repro-lint: disable=pool-safety
    return _fallback


def noise_factors(seed: int, indices: Iterable[int], noise: float) -> np.ndarray:
    """Noise multipliers for every index, bit-identical to the scalar path.

    Equivalent to ``[GpuSimulator._noise_factor(seed, i) for i in indices]``
    but with one vectorized draw pipeline instead of a ``Generator`` per
    invocation.  ``np.exp`` on a contiguous float64 array produces the
    same bits per element as on each scalar, so the final transform is
    safe to batch; the guarded part is the keyed normal draw.
    """
    index_arr = np.ascontiguousarray(list(indices), dtype=np.uint64)
    if not noise:
        return np.ones(index_arr.shape[0], dtype=np.float64)
    # Mask the seed term in Python first: the scalar path's key is a
    # Python-int expression, so any int seed (negative, or wider than
    # 64 bits) must map to the same 32-bit key without overflowing.
    keys = (_U64((seed * 0x9E3779B9) & 0xFFFFFFFF) + index_arr) & _MASK32
    if _self_check_failed():
        gauss = np.array(
            [np.random.default_rng(int(k)).standard_normal() for k in keys],
            dtype=np.float64,
        )
    else:
        gauss = first_standard_normal(keys)
    return np.exp(gauss * noise - 0.5 * noise**2)
